"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy dictionary
constructions (p = 31, 61, 101) are shared session-wide, and the Monte
Carlo campaigns reuse one seeded report per prime.
"""

import math

import numpy as np
import pytest

from srip.dictionaries import build_extended_oscillator_dictionary, coherence_report
from srip.field import PrimeField
from srip.operators import heisenberg_operators, weil_operators
from srip.paths import (
    PathClass,
    _expected_weights,
    class_normalization,
    enumerate_path_classes,
    exact_spectral_moment,
    tree_to_dyck,
)
from srip.spectra import catalan_number, run_spectrum

from conftest import heisenberg_dict, oscillator_dict
from oracles import (
    HeisenbergElement,
    SL2Element,
    act_heisenberg,
    brute_expected_weight,
    completeness_residual,
    dyck_to_tree,
    random_hermitian,
    random_sl2,
    row,
    trace_by_path_sum,
)

SEED = 42
TRIALS = 200
EPSILON = 0.3
LADDER = (31, 61, 101)


@pytest.fixture(scope="module")
def campaign_reports():
    return {
        p: run_spectrum(heisenberg_dict(p), epsilon=EPSILON, kmax=6, trials=TRIALS, seed=SEED)
        for p in LADDER
    }


@pytest.fixture(scope="module")
def crit5_stats():
    return run_spectrum(heisenberg_dict(11), epsilon=EPSILON, kmax=4, trials=10_000,
                        seed=SEED).moments


def test_criterion_1_heisenberg_coherence_equality():
    worst = 0.0
    for p in (5, 7, 11, 13):
        rep = coherence_report(heisenberg_dict(p))
        dev = max(abs(rep.max_scaled_coherence - 1.0), abs(rep.min_scaled_coherence - 1.0))
        assert dev <= 1e-9, f"p={p}: max deviation from the exact equality is {dev:.3e}"
        worst = max(worst, dev)
    print(f"criterion 1 PASS: every cross pair has sqrt(p)|<phi,psi>| = 1 "
          f"within {worst:.2e} for p in {{5,7,11,13}}")


def test_criterion_2_oscillator_coherence_bounds():
    observed = {}
    for p in (5, 7, 11):
        rep = coherence_report(oscillator_dict(p))
        assert rep.max_scaled_coherence <= 4.0
        observed[f"osc p={p}"] = rep.max_scaled_coherence

    full5 = build_extended_oscillator_dictionary(PrimeField(5))
    rep5 = coherence_report(full5)
    assert rep5.max_scaled_coherence <= 4.0
    observed["ext p=5 (full)"] = rep5.max_scaled_coherence

    sub7 = build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=6,
                                                subsample_seed=SEED)
    rep7 = coherence_report(sub7)
    assert rep7.cross_pairs_checked >= 10_000
    assert rep7.max_scaled_coherence <= 4.0
    observed["ext p=7 (sampled)"] = rep7.max_scaled_coherence
    summary = ", ".join(f"{k}: {v:.3f}" for k, v in observed.items())
    print(f"criterion 2 PASS: sqrt(p)|<phi,psi>| <= 4 throughout ({summary}; "
          f"{rep7.cross_pairs_checked} sampled pairs at p=7)")


def _random_heis(rng, p):
    t, w, z = (int(x) for x in rng.integers(0, p, size=3))
    return HeisenbergElement(t, w, z, p)


def test_criterion_3_representation_identities():
    worst_unitary = worst_hom = worst_conj = 0.0
    for p in (5, 7, 11):
        f = PrimeField(p)
        rng = np.random.default_rng(SEED + p)
        eye = np.eye(p)
        for _ in range(100):
            h1, h2 = _random_heis(rng, p), _random_heis(rng, p)
            g = SL2Element(*random_sl2(rng, p), p)
            U1 = heisenberg_operators(f, [row(h1)])[0]
            W = weil_operators(f, [row(g)])[0]
            for U in (U1, W):
                worst_unitary = max(worst_unitary, np.abs(U.conj().T @ U - eye).max())
            worst_hom = max(
                worst_hom,
                np.abs(U1 @ heisenberg_operators(f, [row(h2)])[0]
                       - heisenberg_operators(f, [row(h1 * h2)])[0]).max(),
            )
            lhs = W @ U1 @ W.conj().T
            rhs = heisenberg_operators(f, [row(act_heisenberg(g, h1))])[0]
            worst_conj = max(worst_conj, np.abs(lhs - rhs).max())
    assert worst_unitary <= 1e-10
    assert worst_hom <= 1e-10
    assert worst_conj <= 1e-9
    print(f"criterion 3 PASS: unitarity {worst_unitary:.2e}, translation-modulation "
          f"homomorphism {worst_hom:.2e}, conjugation identity {worst_conj:.2e} "
          f"(100 random pairs each, p in {{5,7,11}})")


def test_criterion_4_combinatorial_exactness():
    counts = []
    for k in (2, 4, 6, 8):
        trees = [pc for pc in enumerate_path_classes(k) if pc.is_tree]
        assert len(trees) == catalan_number(k // 2)
        counts.append(len(trees))
        for pc in trees:
            assert dyck_to_tree(tree_to_dyck(pc)) == pc
    assert counts == [1, 2, 5, 14]

    worst = 0.0
    rng = np.random.default_rng(SEED)
    for n in (3, 4, 5, 6):
        for k in (2, 3, 4, 5):
            M = random_hermitian(rng, n)
            np.fill_diagonal(M, 0.0)
            dev = abs(trace_by_path_sum(M, k) - np.trace(np.linalg.matrix_power(M, k)))
            worst = max(worst, dev)
    assert worst <= 1e-8
    print(f"criterion 4 PASS: tree counts {counts} match the Catalan numbers, all "
          f"encodings round-trip, trace-formula deviation {worst:.2e} (n <= 6, k <= 5)")


def test_criterion_5_exact_vs_monte_carlo_moments(crit5_stats):
    D = heisenberg_dict(11)
    details = []
    for row in crit5_stats:
        exact = exact_spectral_moment(D, 5, row.k)
        se = math.sqrt(row.variance / 10_000)
        tol = 3 * se + 1e-9
        assert abs(row.mean - exact) <= tol, (
            f"k={row.k}: |{row.mean} - {exact}| > 3 SE = {3 * se:.2e}"
        )
        details.append(f"k={row.k}: |diff|/SE = {abs(row.mean - exact) / se if se else 0:.2f}")
    print(f"criterion 5 PASS: exact class sums match 10^4-trial means within 3 SE "
          f"({'; '.join(details)})")


def test_criterion_6_fundamental_estimate_trajectories():
    # tree class: exact closed form, cross-checked against the literal
    # enumeration oracle at p = 5, increasing toward 1 along the ladder
    two_step = PathClass((1, 2, 1))
    brute = brute_expected_weight((1, 2, 1), heisenberg_dict(5).atoms_matrix)
    (weight5,) = _expected_weights([two_step], heisenberg_dict(5))
    value5 = class_normalization(two_step, 3, 5) * weight5
    assert abs(value5 - 5 * brute) <= 1e-12
    assert abs(value5 - 25 / 29) <= 1e-12

    tree_values = []
    for p in (5, 7, 11, 31):
        (weight,) = _expected_weights([two_step], heisenberg_dict(p))
        v = class_normalization(two_step, 3, p) * weight
        assert abs(v.real - p**2 / (p**2 + p - 1)) <= 1e-12
        tree_values.append(v.real)
    assert tree_values == sorted(tree_values)
    assert all(v < 1 for v in tree_values)

    triangle = PathClass((1, 2, 3, 1))
    mags = []
    for p in (5, 7, 11):
        (weight,) = _expected_weights([triangle], heisenberg_dict(p))
        v = class_normalization(triangle, 3, p) * weight
        mags.append(abs(v))
    assert mags[0] > mags[1] > mags[2]
    print(f"criterion 6 PASS: tree trajectory {[round(v, 6) for v in tree_values]} rises "
          f"toward 1 (25/29 exact at p=5); non-tree magnitudes "
          f"{[round(m, 6) for m in mags]} fall (ladder-constant n = 3)")


def test_criterion_7_completeness_identity():
    residual = completeness_residual(
        PathClass((1, 2, 3, 2, 1)), 3, heisenberg_dict(5), samples=100, seed=SEED
    )
    assert residual <= 1e-8
    print(f"criterion 7 PASS: completeness identity residual {residual:.2e} "
          f"over 100 sampled assignments (p = 5)")


def test_criterion_8_semicircle_convergence_trend(campaign_reports):
    r31, r101 = campaign_reports[31], campaign_reports[101]
    m2_101 = r101.moments[1].mean
    m4_101 = r101.moments[3].mean
    assert abs(m2_101 - 1.0) <= 0.10
    assert abs(m4_101 - 2.0) <= 0.30  # 15% of 2
    m2_31 = r31.moments[1].mean
    assert abs(m2_101 - 1.0) < abs(m2_31 - 1.0)
    assert r101.ks_pooled < r31.ks_pooled
    print(f"criterion 8 PASS: m2 = {m2_101:.4f}, m4 = {m4_101:.4f} at p=101; "
          f"|m2-1| falls {abs(m2_31 - 1):.4f} -> {abs(m2_101 - 1):.4f}; "
          f"pooled KS falls {r31.ks_pooled:.4f} -> {r101.ks_pooled:.4f}")


def test_criterion_9_srip_tail_trend(campaign_reports, single_basis5):
    freqs = [campaign_reports[p].tails[0].frequency for p in LADDER]
    assert all(a >= b for a, b in zip(freqs, freqs[1:])), f"tail frequencies {freqs}"
    control = run_spectrum(single_basis5, epsilon=EPSILON, trials=50, seed=SEED).tails
    assert all(t.frequency == 0.0 for t in control)
    print(f"criterion 9 PASS: tail frequencies {freqs} nonincreasing across p in "
          f"{LADDER}; single-basis control is exactly 0")


def test_criterion_10_determinism(campaign_reports, crit5_stats):
    rerun5 = run_spectrum(heisenberg_dict(11), epsilon=EPSILON, kmax=4,
                          trials=10_000, seed=SEED).moments
    assert rerun5 == crit5_stats

    for p in LADDER:
        rerun = run_spectrum(heisenberg_dict(p), epsilon=EPSILON, kmax=6,
                             trials=TRIALS, seed=SEED)
        assert rerun.to_dict() == campaign_reports[p].to_dict()
        assert np.array_equal(rerun.eigenvalues, campaign_reports[p].eigenvalues)
    print("criterion 10 PASS: reruns of criteria 5, 8, 9 with identical seeds "
          "reproduce every payload exactly")


def test_variance_scaling_stays_bounded(campaign_reports):
    # Var(m_k) = O(1/n): n * Var at p=101 within 3x of p=31 for k <= 6
    r31, r101 = campaign_reports[31], campaign_reports[101]
    for k in range(1, 7):
        v31 = r31.moments[k - 1].variance * r31.n
        v101 = r101.moments[k - 1].variance * r101.n
        if max(v31, v101) <= 1e-20:  # m_1 is identically zero; only fp dust remains
            continue
        assert v101 <= 3 * v31, f"k={k}: n*Var grew {v31:.3e} -> {v101:.3e}"
    print("variance scaling PASS: n * Var(m_k) does not grow across the ladder (k <= 6)")


def _exact_triangle_weight(D):
    """Exact E of G[a,b]G[b,c]G[c,a] over injective triples (unbudgeted oracle).

    The N x N Gram G = M^T conj(M) is never formed.  Through the p x p
    matrix F = conj(M) M^T, the cyclic trace gives tr G^3 = tr F^3, and
    (G^2)_aa = sum_ij M_ia F_ij conj(M_ja); each of the three terms with one
    coincidence is sum_a G_aa (G^2)_aa.
    """
    M = D.atoms_matrix
    N = M.shape[1]
    F = M.conj() @ M.T
    d = np.einsum("ia,ia->a", M, M.conj())
    g2 = np.einsum("ia,ia->a", M, F @ M.conj())
    tr3 = np.trace(F @ F @ F)
    m_ab = m_bc = m_ac = np.sum(d * g2)
    m_all = np.sum(d**3)
    return (tr3 - m_ab - m_bc - m_ac + 2 * m_all) / (N * (N - 1) * (N - 2))


@pytest.mark.slow
def test_odd_moment_matches_exact_and_decays_at_fixed_n(campaign_reports):
    # The third moment has one class (the triangle).  Its exact expectation
    # pins the Monte Carlo mean at both ladder ends, and the decay toward 0
    # shows at ladder-constant normalization (p^{3/2} E w falls like
    # p^{-1/2}); under n = floor(p^{0.7}) the n-dependent factors still
    # dominate at these primes, so no directional claim is made there.
    normalized = []
    for p in (31, 101):
        rep = campaign_reports[p]
        n = rep.n
        ew = _exact_triangle_weight(heisenberg_dict(p))
        exact_m3 = ((p / n) ** 1.5 / n * n * (n - 1) * (n - 2) * ew).real
        row = rep.moments[2]
        se = math.sqrt(row.variance / rep.trials)
        assert abs(row.mean - exact_m3) <= 3 * se
        normalized.append((p ** 1.5 * ew).real)
    assert normalized[1] < normalized[0]
    print(f"odd moment PASS: Monte Carlo m3 matches the exact class sums at both "
          f"ladder ends; fixed-n normalization falls {normalized[0]:.4f} -> {normalized[1]:.4f}")
