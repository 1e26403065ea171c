"""Dense complex matrix kernel.

Hermitian eigenproblems go to LAPACK through ``np.linalg.eigh``, with the
result flipped to descending eigenvalue order.  Unitary operators are
diagonalized by reducing to the Hermitian problem through a fixed linear
combination of U and its adjoint; the resulting vectors are verified
against U directly, ordered by descending eigenvalue phase in (0, 2pi]
and phase-normalized column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DimensionMismatchError, NotHermitianError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
EIGENVECTOR_RESIDUAL_TOL = 1e-8

# arbitrary fixed phase for the unitary-to-Hermitian reduction; doubled on
# retry when two distinct unitary eigenvalues land on the same real part
_BASE_PHASE = 0.5371
_MAX_RETRIES = 3


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition: eigenvalues descending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_complex(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def _check_hermitian(A: np.ndarray) -> np.ndarray:
    A = _as_square_complex(A)
    dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise NotHermitianError(f"max |A - A^H| = {dev:.3e} exceeds {HERMITIAN_ATOL:.1e}")
    return A


def hermitian_eig(A: np.ndarray) -> HermitianEig:
    """Full spectral decomposition of a Hermitian matrix by LAPACK.

    Raises
    ------
    NotHermitianError
        If ``max |A - A^H|`` exceeds 1e-12.
    """
    w, V = np.linalg.eigh(_check_hermitian(A))
    return HermitianEig(w[::-1].copy(), np.ascontiguousarray(V[:, ::-1]))


def op_norm(A: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    eig = hermitian_eig(A)
    return float(np.abs(eig.eigenvalues).max()) if eig.eigenvalues.size else 0.0


def trace_power(A: np.ndarray, k: int) -> float:
    """Tr(A^k) of a Hermitian matrix, computed through its eigenvalues."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    eig = hermitian_eig(A)
    return float(np.sum(eig.eigenvalues**k))


def gram(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix G_ij = <v_i, v_j> = sum_t v_i(t) * conj(v_j(t)).

    ``vectors`` holds the vectors as columns.  The result is Hermitian by
    construction.
    """
    V = np.asarray(vectors, dtype=np.complex128)
    if V.ndim != 2:
        raise DimensionMismatchError("expected a 2-D array with vectors as columns")
    return V.T @ V.conj()


def anchor_index(v: np.ndarray, rtol: float = 1e-9) -> int | np.ndarray:
    """Lowest index whose magnitude ties the maximum within a relative window.

    Taken per column of a matrix, so a matrix gives one index per column.
    The window makes the choice stable for flat-magnitude vectors, where
    exact argmax would land on rounding noise.
    """
    mags = np.abs(v)
    return np.argmax(mags >= mags.max(axis=0) * (1.0 - rtol), axis=0)


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and positive.

    A vector is treated as one column.  Ties in magnitude resolve to the
    lowest index, and the chosen entry is set to its modulus exactly.  A
    zero column comes back unchanged.
    """
    v = np.array(v, dtype=np.complex128)
    cols = v.reshape(v.shape[0], -1)  # a view, also of a vector
    j = np.arange(cols.shape[1])
    k = anchor_index(cols)
    anchor = cols[k, j]
    # hypot is how abs() of one complex scalar rounds; np.abs on an array can
    # differ from it in the last bit
    m = np.hypot(anchor.real, anchor.imag)
    cols *= np.divide(anchor.conj(), m, out=np.ones_like(anchor), where=m > 0)
    cols[k, j] = m
    return v


def unitary_eigenbasis(U: np.ndarray) -> np.ndarray:
    """Orthonormal eigenbasis of a unitary matrix with distinct eigenvalues.

    Diagonalizes H = alpha*U + conj(alpha)*U^H for a fixed phase alpha and
    checks every resulting vector against U itself.  When two distinct
    unitary eigenvalues collapse onto one real part of H, the phase is
    doubled and the reduction retried (at most 3 retries).  Columns are
    ordered by descending eigenvalue phase, phases taken in (0, 2pi], so an
    eigenvalue 1 comes first; each column is phase-normalized.

    Raises
    ------
    DimensionMismatchError
        If U is not square or is empty.
    DegenerateSpectrumError
        If some vector still fails the eigenvector residual check after
        all retries.
    """
    U = _as_square_complex(U)
    n = U.shape[0]
    if not n:
        raise DimensionMismatchError("expected a nonempty matrix, got shape (0, 0)")
    dev = np.abs(U.conj().T @ U - np.eye(n)).max()
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: max |U^H U - I| = {dev:.3e}")

    Uh = U.conj().T
    worst = None
    for attempt in range(_MAX_RETRIES + 1):
        alpha = np.exp(1j * _BASE_PHASE * (2**attempt))
        H = alpha * U + np.conj(alpha) * Uh
        vecs = hermitian_eig(H).eigenvectors
        UV = U @ vecs
        lam = np.einsum("ij,ij->j", vecs.conj(), UV)  # Rayleigh quotients
        worst = float(np.abs(UV - vecs * lam).max())
        if worst <= EIGENVECTOR_RESIDUAL_TOL:
            # clockwise turns from 1 in [0, 1); the rounding sends the +-1e-17
            # angle noise of an eigenvalue 1 to 0 whatever its sign
            turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
            return phase_normalize(vecs[:, np.argsort(turns, kind="stable")])
    raise DegenerateSpectrumError(
        f"eigenvector residual {worst:.3e} exceeds {EIGENVECTOR_RESIDUAL_TOL:.1e} "
        f"after {_MAX_RETRIES} retries; spectrum may be degenerate"
    )
