"""Unitary operator realizations of the Heisenberg and Weil group actions.

Operators act on C(F_p), realized as dense p x p complex matrices built
entrywise from integer exponent arithmetic and a single character table
lookup, so every matrix entry is an exact root of unity (up to one
complex exponential evaluation).  The operators of an array of group
elements come as one (n, p, p) stack from one such computation
(``weil_operators``, ``heisenberg_operators``); the operator of one
element is its one-element case.  ``heisenberg_action`` applies a stack
of Heisenberg operators as the monomial maps they are.

The symplectic operators come from the closed-form entries of a
generator decomposition; their global phase is arbitrary and all
consumers are phase-invariant.  The conjugation identity
U(g) pi(h) U(g)^{-1} = pi(g h), which is phase-free, is the correctness
oracle exercised by the test battery; the generator matrices themselves
(scaling, chirp and Fourier) and the group law of the semidirect product
SL_2 x| H are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotUnimodularError
from .field import PrimeField


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (v, z) with v = (tau, w), twisted product via the symplectic form."""

    tau: int
    w: int
    z: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "tau", self.tau % self.p)
        object.__setattr__(self, "w", self.w % self.p)
        object.__setattr__(self, "z", self.z % self.p)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if other.p != self.p:
            raise ValueError("group elements live over different primes")
        p = self.p
        inv2 = pow(2, p - 2, p)
        omega = self.tau * other.w - self.w * other.tau
        z = (self.z + other.z + inv2 * omega) % p
        return HeisenbergElement(self.tau + other.tau, self.w + other.w, z, p)

    @classmethod
    def identity(cls, p: int) -> "HeisenbergElement":
        return cls(0, 0, 0, p)


@dataclass(frozen=True)
class SL2Element:
    """Matrix [[a, b], [c, d]] over F_p with det = 1 (checked exactly)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        p = self.p
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise NotUnimodularError(
                f"det([[{self.a},{self.b}],[{self.c},{self.d}]]) != 1 mod {p}"
            )

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if other.p != self.p:
            raise ValueError("group elements live over different primes")
        p = self.p
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            p,
        )

    @classmethod
    def identity(cls, p: int) -> "SL2Element":
        return cls(1, 0, 0, 1, p)


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


def heisenberg_operator(field: PrimeField, h: HeisenbergElement) -> np.ndarray:
    """The translation-modulation operator of one Heisenberg group element."""
    return heisenberg_operators(field, [(h.tau, h.w, h.z)])[0]


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


def weil_operator(field: PrimeField, g: SL2Element) -> np.ndarray:
    """Unitary operator of one g in SL_2(F_p), fixed up to a global unit phase."""
    if g.p != field.p:
        raise ValueError("element and field use different primes")
    return weil_operators(field, [(g.a, g.b, g.c, g.d)])[0]
