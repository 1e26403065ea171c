"""Dense complex matrix kernel.

Hermitian spectra come from LAPACK through ``np.linalg.eigvalsh``,
eigenvalues only, flipped to descending order.  Unitary operators are
diagonalized by ``np.linalg.eigh`` of a fixed linear combination of U
and its adjoint, the one place eigenvectors are computed; the resulting
vectors are verified against U directly, ordered by descending eigenvalue
phase in (0, 2pi] and phase-normalized column by column.

Every blocked loop of the package takes its block bounds from ``chunks``,
so one budget, ``CHUNK_ENTRIES``, decides how much any block holds.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrumError, DimensionMismatchError, NotHermitianError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
EIGENVECTOR_RESIDUAL_TOL = 1e-8
ANCHOR_RTOL = 1e-9
# entries that one block of a blocked loop may hold at once, its temporaries together
CHUNK_ENTRIES = 2**15

# arbitrary fixed phase for the unitary-to-Hermitian reduction; doubled on
# retry when two distinct unitary eigenvalues land on the same real part
_BASE_PHASE = 0.5371
_MAX_RETRIES = 3


def chunks(count: int, entries: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of ``count`` items that cost
    ``entries`` entries each: a block holds at most ``CHUNK_ENTRIES``
    entries, or one item."""
    step = max(1, CHUNK_ENTRIES // max(entries, 1))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _as_square_complex(A: np.ndarray) -> np.ndarray:
    """A as complex128, checked to be a square matrix or a (..., n, n) stack of them."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def _check_hermitian(A: np.ndarray) -> np.ndarray:
    A = _as_square_complex(A)
    dev = np.abs(A - A.conj().swapaxes(-1, -2)).max() if A.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise NotHermitianError(f"max |A - A^H| = {dev:.3e} exceeds {HERMITIAN_ATOL:.1e}")
    return A


def hermitian_eig(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by LAPACK, descending; no eigenvectors.

    A (..., n, n) stack is solved in one call, matrix by matrix, with the
    same checks and the same results as solving each matrix alone.

    Raises
    ------
    NotHermitianError
        If ``max |A - A^H|`` exceeds 1e-12 in any matrix.
    """
    return np.linalg.eigvalsh(_check_hermitian(A))[..., ::-1].copy()


def gram(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix G_ij = <v_i, v_j> = sum_t v_i(t) * conj(v_j(t)).

    ``vectors`` holds the vectors as columns; a (..., p, n) stack gives the
    (..., n, n) stack of Gram matrices in one product.  The result is
    Hermitian by construction.
    """
    V = np.asarray(vectors, dtype=np.complex128)
    if V.ndim < 2:
        raise DimensionMismatchError("expected vectors as the columns of a matrix or a stack")
    return V.swapaxes(-1, -2) @ V.conj()


def anchor_index(v: np.ndarray) -> int | np.ndarray:
    """Lowest index whose magnitude ties the maximum up to the relative window ``ANCHOR_RTOL``.

    Taken per column of a matrix or of each matrix of a stack, so a
    (..., p, k) array gives a (..., k) array of indices.  The window makes
    the choice stable for flat-magnitude vectors, where exact argmax would
    land on rounding noise.
    """
    mags = np.abs(v)
    axis = 0 if mags.ndim == 1 else -2
    return np.argmax(mags >= mags.max(axis=axis, keepdims=True) * (1.0 - ANCHOR_RTOL), axis=axis)


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and positive.

    A vector is treated as one column, and a (..., p, k) stack column by
    column.  Ties in magnitude resolve to the lowest index, and the chosen
    entry is set to its modulus exactly.  A zero column comes back
    unchanged.
    """
    v = np.array(v, dtype=np.complex128)
    _rotate_columns(v[:, None] if v.ndim == 1 else v)
    return v


def _rotate_columns(cols: np.ndarray) -> None:
    """``phase_normalize`` of the (..., p, k) complex array ``cols``, in place."""
    k = anchor_index(cols)[..., None, :]
    anchor = np.take_along_axis(cols, k, axis=-2)
    # hypot is how abs() of one complex scalar rounds; np.abs on an array can
    # differ from it in the last bit
    m = np.hypot(anchor.real, anchor.imag)
    cols *= np.divide(anchor.conj(), m, out=np.ones_like(anchor), where=m > 0)
    np.put_along_axis(cols, k, m, axis=-2)


def eigen_residual(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotients of the unit columns of V under U, and the largest
    entry of the eigenvector residual |U V - V diag(lambda)|.

    A (..., p, p) stack of U and V pairs gives the (..., p) quotients and
    the (...) residuals, one per pair, from one stacked product.
    """
    UV = U @ V
    buf = V.conj()
    lam = np.einsum("...ij,...ij->...j", buf, UV)
    UV -= np.multiply(V, lam[..., None, :], out=buf)  # V diag(lambda), in conj(V)'s place
    return lam, np.abs(UV).max(axis=(-2, -1))


def order_eigenbasis(V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The eigenvector columns of V in descending eigenvalue phase, phases taken
    in (0, 2pi] so an eigenvalue 1 comes first, each column phase-normalized.

    ``lam`` holds the column eigenvalues, unit complex numbers; a
    (..., p, p) stack of V with its (..., p) eigenvalues is ordered matrix
    by matrix.
    """
    # clockwise turns from 1 in [0, 1); the rounding sends the +-1e-17 angle
    # noise of an eigenvalue 1 to 0 whatever its sign
    turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
    order = np.argsort(turns, axis=-1, kind="stable")[..., None, :]
    ordered = np.take_along_axis(np.asarray(V, dtype=np.complex128), order, axis=-1)
    _rotate_columns(ordered)
    return ordered


def unitary_eigenbasis(U: np.ndarray) -> np.ndarray:
    """Orthonormal eigenbasis of a unitary matrix with distinct eigenvalues.

    Diagonalizes H = alpha*U + conj(alpha)*U^H for a fixed phase alpha with
    ``np.linalg.eigh`` and checks every resulting vector against U itself
    (``eigen_residual``).  H needs no Hermitian check: it is Hermitian bit
    for bit, since each entry and the conjugate of its mirror entry are
    sums of the same two products.
    When two distinct unitary eigenvalues collapse onto one real part of H,
    the phase is doubled and the reduction retried (at most 3 retries).
    Columns are ordered and phase-normalized by ``order_eigenbasis``.

    Raises
    ------
    DimensionMismatchError
        If U is not one nonempty square matrix.
    DegenerateSpectrumError
        If some vector still fails the eigenvector residual check after
        all retries.
    """
    U = _as_square_complex(U)
    if U.ndim != 2 or not U.shape[0]:
        raise DimensionMismatchError(f"expected a nonempty matrix, got shape {U.shape}")
    n = U.shape[0]
    dev = np.abs(U.conj().T @ U - np.eye(n)).max()
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: max |U^H U - I| = {dev:.3e}")

    Uh = U.conj().T
    worst = None
    for attempt in range(_MAX_RETRIES + 1):
        alpha = np.exp(1j * _BASE_PHASE * (2**attempt))
        H = alpha * U + np.conj(alpha) * Uh
        vecs = np.linalg.eigh(H)[1]
        lam, worst = eigen_residual(U, vecs)
        if worst <= EIGENVECTOR_RESIDUAL_TOL:
            return order_eigenbasis(vecs, lam)
    raise DegenerateSpectrumError(
        f"eigenvector residual {worst:.3e} exceeds {EIGENVECTOR_RESIDUAL_TOL:.1e} "
        f"after {_MAX_RETRIES} retries; spectrum may be degenerate"
    )
