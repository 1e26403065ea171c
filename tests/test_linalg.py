import numpy as np
import pytest

from srip.errors import DimensionMismatchError, NotHermitianError, SripError
from srip.linalg import (
    anchor_index,
    gram,
    hermitian_eig,
    phase_normalize,
    unitary_eigenbasis,
)
from srip.field import PrimeField

from oracles import fourier_operator, random_hermitian


def test_pauli_x_eigenvalues():
    eig = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(eig, [1.0, -1.0], atol=1e-14)


def test_identity_eigenvalues():
    eig = hermitian_eig(np.eye(6, dtype=complex))
    assert np.allclose(eig, 1.0, atol=0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(n)
    A = random_hermitian(rng, n)
    w = hermitian_eig(A)
    # descending order
    assert np.all(np.diff(w) <= 0)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_eigenvalues_match_lapack_oracle(n):
    rng = np.random.default_rng(100 + n)
    A = random_hermitian(rng, n)
    w = hermitian_eig(A)
    w_ref = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(w - w_ref).max() < 1e-10


def test_not_hermitian_raises():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_non_square_raises():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3), dtype=complex))


def test_hermitian_eig_deterministic():
    rng = np.random.default_rng(5)
    A = random_hermitian(rng, 12)
    e1 = hermitian_eig(A)
    e2 = hermitian_eig(A)
    assert np.array_equal(e1, e2)


def test_op_norm_examples():
    w = hermitian_eig(np.diag([1.0, -2.0]).astype(complex))
    assert np.abs(w).max() == pytest.approx(2.0, abs=1e-14)
    assert np.abs(hermitian_eig(np.zeros((3, 3), dtype=complex))).max() == 0.0


def test_op_norm_matches_spectral_radius():
    rng = np.random.default_rng(7)
    A = random_hermitian(rng, 16)
    w = hermitian_eig(A)
    assert np.abs(hermitian_eig(A)).max() == pytest.approx(np.abs(w).max(), abs=1e-10)


def test_trace_power_examples():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.sum(hermitian_eig(X)**2) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(11)
    A = random_hermitian(rng, 5)
    assert np.sum(hermitian_eig(A)) == pytest.approx(np.trace(A).real, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_trace_power_matches_matrix_multiplication(k):
    rng = np.random.default_rng(20 + k)
    A = random_hermitian(rng, 8)
    direct = np.trace(np.linalg.matrix_power(A, k)).real
    assert np.sum(hermitian_eig(A)**k) == pytest.approx(direct, abs=1e-8)


def test_gram_orthonormal_subset_is_identity():
    V = np.eye(5, dtype=complex)[:, :3]
    assert np.abs(gram(V) - np.eye(3)).max() < 1e-12


def test_gram_single_unit_vector():
    v = np.array([[0.6], [0.8j]], dtype=complex)
    assert np.abs(gram(v) - np.array([[1.0]])).max() < 1e-12


def test_gram_inner_product_convention():
    # <x, y> = sum_t x(t) conj(y(t)): linear in the first argument
    x = np.array([1.0 + 1j, 0.0])
    y = np.array([0.0 + 1j, 2.0])
    G = gram(np.column_stack([x, y]))
    assert G[0, 1] == pytest.approx(np.sum(x * np.conj(y)))
    assert G[1, 0] == pytest.approx(np.conj(G[0, 1]))


def test_gram_cross_line_atoms(dh5):
    a = dh5.stack[0, 2]
    b = dh5.stack[3, 1]
    G = gram(np.column_stack([a, b]))
    assert abs(abs(G[0, 1]) - 1 / np.sqrt(5)) < 1e-10


def test_unitary_eigenbasis_diagonal():
    U = np.diag([1j, -1j])
    V = unitary_eigenbasis(U)
    # columns are the standard basis vectors (in solver order); the phase
    # convention makes their nonzero entries exactly real positive
    perm = np.abs(V)
    assert np.allclose(perm @ perm.T, np.eye(2), atol=1e-12)
    assert set(np.argmax(perm, axis=0)) == {0, 1}
    assert np.allclose(V, perm, atol=1e-12)


def test_unitary_eigenbasis_fourier_residuals():
    f = PrimeField(5)
    U = fourier_operator(f)
    V = unitary_eigenbasis(U)
    lam = np.einsum("ij,ik,kj->j", V.conj(), U, V)
    assert np.abs(U @ V - V * lam).max() <= 1e-8
    assert np.abs(V.conj().T @ V - np.eye(5)).max() <= 1e-10


def test_unitary_eigenbasis_deterministic():
    f = PrimeField(7)
    U = fourier_operator(f)
    V1 = unitary_eigenbasis(U)
    V2 = unitary_eigenbasis(U)
    assert np.array_equal(V1, V2)


def test_unitary_eigenbasis_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_eigenbasis(2.0 * np.eye(3, dtype=complex))


def test_unitary_eigenbasis_rejects_empty_matrix():
    with pytest.raises(DimensionMismatchError):
        unitary_eigenbasis(np.zeros((0, 0), dtype=complex))


def test_unitary_eigenbasis_survives_phase_collision():
    # two eigenvalues symmetric about the first reduction phase collide in
    # H(alpha); the retry with a doubled phase must separate them
    theta = -0.5371
    diag = np.diag([np.exp(1j * (theta + 0.3)), np.exp(1j * (theta - 0.3)), 1.0])
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    U = Q @ diag @ Q.conj().T
    V = unitary_eigenbasis(U)
    lam = np.einsum("ij,ik,kj->j", V.conj(), U, V)
    assert np.abs(U @ V - V * lam).max() <= 1e-8
    assert np.abs(V.conj().T @ V - np.eye(3)).max() <= 1e-10


def test_phase_normalize():
    v = np.array([0.1, -0.9j, 0.2], dtype=complex)
    out = phase_normalize(v)
    k = np.argmax(np.abs(out))
    assert out[k].imag == 0.0 and out[k].real > 0
    assert abs(np.vdot(out, out) - np.vdot(v, v)) < 1e-12


def test_phase_normalize_matrix_matches_columns():
    rng = np.random.default_rng(3)
    V = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
    V[:, 4] = 0.0
    before = V.copy()
    out = phase_normalize(V)
    k = anchor_index(V)
    for j in range(V.shape[1]):
        v = V[:, j]
        m = abs(v[k[j]])
        expected = v if m == 0 else v * np.conj(v[k[j]]) / m
        assert np.abs(out[:, j] - expected).max() <= 1e-15
        assert out[k[j], j] == m
    assert np.array_equal(out[:, 4], V[:, 4])
    assert np.array_equal(V, before)


def test_unitary_eigenbasis_descending_phase_order():
    t = np.array([0.0, 0.6, 0.2, 0.8, 0.4])
    V = unitary_eigenbasis(np.diag(np.exp(-2j * np.pi * t)))
    assert np.abs(V - np.eye(5)[:, [0, 2, 4, 1, 3]]).max() <= 1e-12


def _raised(call, arg):
    with pytest.raises((ValueError, SripError)) as info:
        call(arg)
    return type(info.value), str(info.value)


def test_stacked_hermitian_eig_equals_each_matrix_alone():
    rng = np.random.default_rng(8)
    stack = np.stack([random_hermitian(rng, 7) for _ in range(5)]).reshape(5, 1, 7, 7)
    eig = hermitian_eig(stack)
    assert eig.shape == (5, 1, 7)
    for b in range(5):
        alone = hermitian_eig(stack[b, 0])
        assert np.array_equal(eig[b, 0], alone)


@pytest.mark.parametrize("defect", ["not_hermitian", "nan", "inf"])
def test_stack_with_one_bad_matrix_raises_as_the_matrix_alone(defect):
    rng = np.random.default_rng(9)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(3)])
    bad = stack[1].copy()
    if defect == "not_hermitian":
        bad[0, 3] += 1e-6
    else:
        bad[2, 2] = np.nan if defect == "nan" else np.inf
    stack[1] = bad
    alone = _raised(hermitian_eig, bad)
    assert alone[0] is (NotHermitianError if defect == "not_hermitian" else ValueError)
    assert _raised(hermitian_eig, stack) == alone


def test_stacked_gram_equals_each_gram_alone():
    rng = np.random.default_rng(10)
    V = rng.normal(size=(3, 6, 4)) + 1j * rng.normal(size=(3, 6, 4))
    G = gram(V)
    assert G.shape == (3, 4, 4)
    for b in range(3):
        assert np.array_equal(G[b], gram(V[b]))


def test_unitary_eigenbasis_rejects_a_stack():
    with pytest.raises(DimensionMismatchError):
        unitary_eigenbasis(np.stack([np.eye(3, dtype=complex)] * 2))


def test_stacked_eigenbasis_steps_are_the_per_matrix_steps():
    from srip.linalg import eigen_residual, order_eigenbasis

    rng = np.random.default_rng(11)

    def unitaries(count):
        return np.stack([np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))[0]
                         for _ in range(count)])

    Us, Vs = unitaries(5), unitaries(5)
    lam, resid = eigen_residual(Us, Vs)
    ordered = order_eigenbasis(Vs, lam)
    normalized = phase_normalize(Vs)
    assert resid.shape == (5,) and lam.shape == (5, 7)
    for k in range(5):
        lam_k, resid_k = eigen_residual(Us[k], Vs[k])
        assert lam[k].tobytes() == lam_k.tobytes() and resid[k] == resid_k
        assert ordered[k].tobytes() == order_eigenbasis(Vs[k], lam_k).tobytes()
        assert normalized[k].tobytes() == phase_normalize(Vs[k]).tobytes()
        assert np.array_equal(anchor_index(Vs)[k], anchor_index(Vs[k]))


@pytest.mark.parametrize(
    "budget, count, entries",
    [(2**15, 0, 5), (2**15, 1, 2**20), (2**15, 62, 4 * 61 * 61), (2**15, 77, 13 * 13),
     (2**15, 200, 4 * 31 * 11), (10, 7, 3), (10, 7, 10), (10, 7, 11), (1, 5, 1)],
)
def test_chunks_cover_every_item_once_within_the_budget(monkeypatch, budget, count, entries):
    import srip.linalg as linalg

    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", budget)
    blocks = linalg.chunks(count, entries)
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(count))
    sizes = [hi - lo for lo, hi in blocks]
    assert all(size * entries <= budget or size == 1 for size in sizes)
    # every block but the last is as large as the budget allows
    assert all(size == max(1, budget // entries) for size in sizes[:-1])
    if count == 0:
        assert blocks == []
