"""Unitary operator realizations of the Heisenberg and Weil group actions.

Group elements are integer rows: (a, b, c, d) for [[a, b], [c, d]] in
SL_2(F_p) and (tau, w, z) for a Heisenberg element.  Operators act on
C(F_p), realized as dense p x p complex matrices built entrywise from
integer exponent arithmetic and a single character table lookup, so
every matrix entry is an exact root of unity (up to one complex
exponential evaluation).  The operators of an (n, 4) or (n, 3) array of
rows come as one (n, p, p) stack from one such computation
(``weil_operators``, ``heisenberg_operators``).  ``heisenberg_action``
applies a stack of Heisenberg operators as the monomial maps they are.

The symplectic operators come from the closed-form entries of a
generator decomposition; their global phase is arbitrary and all
consumers are phase-invariant.  The conjugation identity
U(g) pi(h) U(g)^{-1} = pi(g h), which is phase-free, is the correctness
oracle exercised by the test battery; the generator matrices themselves
(scaling, chirp and Fourier) and the group laws of SL_2, H and the
semidirect product SL_2 x| H are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnimodularError
from .field import PrimeField


def _monomial(field: PrimeField, h) -> tuple[np.ndarray, np.ndarray]:
    """(cols, phase) of the Heisenberg elements given as (n, 3) rows (tau, w, z):
    row t of the operator of element k holds phase[k, t] in column cols[k, t]
    and is zero elsewhere, since (U f)(t) = psi(z - tau*w/2 + w*(t+tau)) f(t+tau)."""
    p = field.p
    tau, w, z = (np.asarray(h, dtype=np.int64).reshape(-1, 3) % p).T[:, :, None]
    cols = (np.arange(p) + tau) % p
    expo = (z - field.inv2 * tau * w + w * cols) % p
    return cols, field.char_table[expo]


def heisenberg_operators(field: PrimeField, h) -> np.ndarray:
    """The (n, p, p) stack of translation-modulation operators of the
    Heisenberg elements given as (n, 3) integer rows (tau, w, z).

    Realized on C(F_p) by (U f)(t) = psi(z - tau*w/2 + w*(t+tau)) f(t+tau),
    which makes the map an exact (not just projective) homomorphism.
    """
    cols, phase = _monomial(field, h)
    M = np.zeros(cols.shape + (field.p,), dtype=np.complex128)
    np.put_along_axis(M, cols[:, :, None], phase[:, :, None], axis=2)
    return M


def heisenberg_action(field: PrimeField, h, F: np.ndarray) -> np.ndarray:
    """pi(h_k) F_k for each matrix F_k of the (n, p, m) stack ``F``, with the
    elements h_k given as (n, 3) rows (tau, w, z).

    Each operator is applied as the monomial map it is, a row permutation
    and a phase per row, so a p x p matrix costs p^2 operations, not p^3.
    """
    cols, phase = _monomial(field, h)
    return phase[:, :, None] * np.take_along_axis(F, cols[:, :, None], axis=1)


def weil_operators(field: PrimeField, g) -> np.ndarray:
    """The (n, p, p) stack of unitary operators of the elements of SL_2(F_p)
    given as (n, 4) integer rows (a, b, c, d), each fixed up to a global unit phase.

    Built from the decomposition g = diag(b, 1/b) u(b d) w u(a/b) when
    b != 0 (u(s) strictly lower triangular, w the Weyl element) and
    g = u(c/a) diag(a, 1/a) when b = 0.  Rather than multiplying four
    generator matrices, the closed-form entries of every operator come
    from one integer exponent computation and one character table lookup.

    Raises
    ------
    NotUnimodularError
        If some row has a determinant other than 1 mod p.
    """
    p = field.p
    a, b, c, d = (np.asarray(g, dtype=np.int64).reshape(-1, 4) % p).T
    if ((a * d - b * c) % p != 1).any():
        raise NotUnimodularError(f"a matrix of the stack has determinant != 1 mod {p}")
    t = np.arange(p)
    tsq = (t * t) % p
    # b != 0, entry (x, t): legendre(b)/sqrt(p) * psi(-d*binv*x^2/2 + binv*x*t - a*binv*t^2/2),
    # formed for every row; the rows with b = 0 are overwritten below
    binv = field.inverses[b][:, None]
    expo = ((binv * t) % p)[:, :, None] * t
    expo += (((-field.inv2 * d[:, None] * binv) % p) * tsq)[:, :, None]
    expo += (((-field.inv2 * a[:, None] * binv) % p) * tsq)[:, None, :]
    expo %= p
    M = np.take(field.char_table, expo)
    M *= field.legendre_table[b][:, None, None]
    M /= np.sqrt(p)
    # b = 0: chirp(c/a) applied after scaling by a
    k = np.flatnonzero(b == 0)
    if len(k):
        ainv = field.inverses[a[k]][:, None]
        expo = ((-field.inv2 * c[k, None] % p) * ainv % p) * tsq % p
        M[k] = 0
        M[k[:, None], t, (ainv * t) % p] = field.legendre_table[a[k], None] * field.char_table[expo]
    return M
