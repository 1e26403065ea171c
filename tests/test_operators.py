import numpy as np
import pytest

from srip.errors import NotUnimodularError
from srip.field import PrimeField
from srip.operators import heisenberg_operators, weil_operators

from oracles import (
    HeisenbergElement,
    SL2Element,
    ZeroScalingError,
    _dense_heisenberg,
    _dense_weil,
    act_heisenberg,
    apply,
    chirp_operator,
    fourier_operator,
    inverse,
    jacobi_multiply,
    jacobi_operator,
    random_sl2,
    row,
    scaling_operator,
)

UNITARITY_TOL = 1e-10


def _unitary_dev(U):
    return np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()


def _random_heis(rng, p):
    t, w, z = (int(x) for x in rng.integers(0, p, size=3))
    return HeisenbergElement(t, w, z, p)


def _sl2(rng, p):
    a, b, c, d = random_sl2(rng, p)
    return SL2Element(a, b, c, d, p)


def test_heisenberg_identity_and_center():
    f = PrimeField(7)
    assert np.abs(heisenberg_operators(f, [(0, 0, 0)])[0] - np.eye(7)).max() == 0
    for z in range(7):
        U = heisenberg_operators(f, [(0, 0, z)])[0]
        assert np.abs(U - f.char_table[z % 7] * np.eye(7)).max() < 1e-15


@pytest.mark.parametrize("p", [5, 7, 11])
def test_heisenberg_exact_homomorphism(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    worst = 0.0
    for _ in range(100):
        h1, h2 = _random_heis(rng, p), _random_heis(rng, p)
        lhs = heisenberg_operators(f, [row(h1)])[0] @ heisenberg_operators(f, [row(h2)])[0]
        rhs = heisenberg_operators(f, [row(h1 * h2)])[0]
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-10


def test_group_law_matches_symplectic_form():
    p = 7
    h1 = HeisenbergElement(2, 3, 0, p)
    h2 = HeisenbergElement(5, 1, 0, p)
    prod = h1 * h2
    inv2 = pow(2, p - 2, p)
    omega = (2 * 1 - 3 * 5) % p
    assert (prod.tau, prod.w, prod.z) == (0, 4, (inv2 * omega) % p)


def test_scaling_identity_and_zero():
    f = PrimeField(7)
    assert np.abs(scaling_operator(f, 1) - np.eye(7)).max() == 0
    with pytest.raises(ZeroScalingError):
        scaling_operator(f, 0)


def test_fourier_square_is_parity():
    f = PrimeField(7)
    F = fourier_operator(f)
    parity = np.zeros((7, 7))
    parity[np.arange(7), (-np.arange(7)) % 7] = 1.0
    assert np.abs(F @ F - parity).max() <= 1e-10


def test_chirp_is_diagonal_unit_modulus():
    f = PrimeField(11)
    M = chirp_operator(f, 4)
    assert np.abs(M - np.diag(np.diag(M))).max() == 0
    assert np.abs(np.abs(np.diag(M)) - 1).max() < 1e-14


@pytest.mark.parametrize("p", [5, 7, 11])
def test_emitted_operators_unitary(p):
    f = PrimeField(p)
    rng = np.random.default_rng(3 * p)
    ops = [fourier_operator(f), chirp_operator(f, 3), scaling_operator(f, 2)]
    for _ in range(20):
        ops.append(heisenberg_operators(f, [row(_random_heis(rng, p))])[0])
        ops.append(weil_operators(f, [row(_sl2(rng, p))])[0])
    for U in ops:
        assert _unitary_dev(U) <= UNITARITY_TOL


def test_weil_on_diagonal_is_scaling_exactly():
    f = PrimeField(11)
    for a in range(1, 11):
        g = SL2Element(a, 0, 0, pow(a, 9, 11), 11)
        assert np.abs(weil_operators(f, [row(g)])[0] - scaling_operator(f, a)).max() == 0


def test_weil_on_weyl_element_is_fourier():
    f = PrimeField(7)
    W = weil_operators(f, [(0, 1, -1, 0)])[0]
    F = fourier_operator(f)
    # phase-free here: the decomposition reduces to F itself
    assert np.abs(W - F).max() <= 1e-12


def test_weil_matches_generator_product_oracle():
    # closed-form entries vs the literal 4-factor generator product
    p = 11
    f = PrimeField(p)
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = _sl2(rng, p)
        W = weil_operators(f, [row(g)])[0]
        if g.b % p == 0:
            ref = chirp_operator(f, (g.c * pow(g.a, p - 2, p)) % p) @ scaling_operator(f, g.a)
        else:
            binv = pow(g.b, p - 2, p)
            ref = (
                scaling_operator(f, g.b)
                @ chirp_operator(f, (g.b * g.d) % p)
                @ fourier_operator(f)
                @ chirp_operator(f, (g.a * binv) % p)
            )
        assert np.abs(W - ref).max() <= 1e-12


@pytest.mark.parametrize("p", [5, 7, 11])
def test_conjugation_covariance_battery(p):
    f = PrimeField(p)
    rng = np.random.default_rng(100 + p)
    worst = 0.0
    for _ in range(100):
        g = _sl2(rng, p)
        h = _random_heis(rng, p)
        W = weil_operators(f, [row(g)])[0]
        lhs = W @ heisenberg_operators(f, [row(h)])[0] @ W.conj().T
        rhs = heisenberg_operators(f, [row(act_heisenberg(g, h))])[0]
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-9


def test_conjugating_by_fourier_swaps_translation_and_modulation():
    p = 7
    f = PrimeField(p)
    W = weil_operators(f, [(0, 1, -1, 0)])[0]
    for tau in range(1, p):
        lhs = W @ heisenberg_operators(f, [(tau, 0, 0)])[0] @ W.conj().T
        rhs = heisenberg_operators(f, [(0, -tau, 0)])[0]
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_weil_multiplicative_up_to_global_phase():
    p = 7
    f = PrimeField(p)
    rng = np.random.default_rng(23)
    for _ in range(50):
        g1, g2 = _sl2(rng, p), _sl2(rng, p)
        A = weil_operators(f, [row(g1)])[0] @ weil_operators(f, [row(g2)])[0]
        B = weil_operators(f, [row(g1 * g2)])[0]
        k = np.unravel_index(np.argmax(np.abs(A)), A.shape)
        A = A * np.conj(A[k]) / np.abs(A[k])
        B = B * np.conj(B[k]) / np.abs(B[k])
        assert np.abs(A - B).max() <= 1e-8


def test_jacobi_operator_basics():
    p = 5
    f = PrimeField(p)
    assert np.abs(
        jacobi_operator(f, SL2Element.identity(p), HeisenbergElement.identity(p)) - np.eye(p)
    ).max() == 0
    g = SL2Element(2, 1, 1, 1, p)
    assert np.array_equal(
        jacobi_operator(f, g, HeisenbergElement.identity(p)), weil_operators(f, [row(g)])[0]
    )


def test_jacobi_projective_homomorphism():
    p = 5
    f = PrimeField(p)
    rng = np.random.default_rng(31)
    for _ in range(50):
        j1 = (_sl2(rng, p), _random_heis(rng, p))
        j2 = (_sl2(rng, p), _random_heis(rng, p))
        prod = jacobi_multiply(j1, j2)
        A = jacobi_operator(f, *j1) @ jacobi_operator(f, *j2)
        B = jacobi_operator(f, *prod)
        assert np.abs(np.abs(A) - np.abs(B)).max() <= 1e-8


def test_not_unimodular_rejected():
    with pytest.raises(NotUnimodularError):
        SL2Element(1, 1, 1, 1, 7)


def test_sl2_inverse_and_action():
    p = 11
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = _sl2(rng, p)
        assert g * inverse(g) == SL2Element.identity(p)
        tau, w = (int(x) for x in rng.integers(0, p, size=2))
        gv = apply(g, (tau, w))
        assert gv == ((g.a * tau + g.b * w) % p, (g.c * tau + g.d * w) % p)


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_stacked_operators_are_the_single_element_operators(p):
    # each operator of a stack, against the dense oracle formed for its element alone
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    gs = [random_sl2(rng, p) for _ in range(40)] + [(1, 0, 3 % p, 1), (p - 1, 0, 0, p - 1)]
    stack = weil_operators(f, gs)
    assert stack.shape == (len(gs), p, p)
    for g, W in zip(gs, stack):
        assert W.tobytes() == _dense_weil(f, *g).tobytes(), g
    hs = rng.integers(0, p, size=(30, 3))
    for h, U in zip(hs.tolist(), heisenberg_operators(f, hs)):
        assert U.tobytes() == _dense_heisenberg(f, *h).tobytes(), h


def test_stacked_weil_operators_refuse_a_non_unimodular_row():
    with pytest.raises(NotUnimodularError):
        weil_operators(PrimeField(7), [(1, 0, 0, 1), (2, 0, 0, 2)])


@pytest.mark.parametrize("p", [5, 11])
def test_heisenberg_action_is_the_operator_product(p):
    from srip.operators import heisenberg_action

    f = PrimeField(p)
    rng = np.random.default_rng(p)
    hs = rng.integers(0, p, size=(12, 3))
    F = rng.normal(size=(12, p, 3)) + 1j * rng.normal(size=(12, p, 3))
    applied = heisenberg_action(f, hs, F)
    for h, Fk, got in zip(hs.tolist(), F, applied):
        assert np.abs(got - heisenberg_operators(f, [h])[0] @ Fk).max() <= 1e-15
