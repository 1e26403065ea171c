import math

import numpy as np
import pytest

from srip.errors import SupportTooLargeError
from srip.linalg import op_norm
from srip.spectra import (
    GramSample,
    catalan_number,
    gram_sample,
    ks_statistic,
    moment_statistics,
    rip_deviation,
    run_spectrum,
    sample_support,
    semicircle_cdf,
    semicircle_density,
    semicircle_moment,
    srip_tail_frequencies,
)


def test_sample_support_full_permutation(dh5):
    s = sample_support(dh5, dh5.atom_count, 0)
    assert sorted(s) == list(range(dh5.atom_count))


def test_sample_support_deterministic_and_injective(dh5):
    s1 = sample_support(dh5, 7, 123)
    s2 = sample_support(dh5, 7, 123)
    assert np.array_equal(s1, s2)
    assert len(set(s1.tolist())) == 7
    assert not np.array_equal(s1, sample_support(dh5, 7, 124))


def test_sample_support_too_large(dh5):
    with pytest.raises(SupportTooLargeError):
        sample_support(dh5, dh5.atom_count + 1, 0)


def test_sample_support_draws_are_pinned(dh5):
    assert sample_support(dh5, 7, 123).tolist() == [8, 15, 13, 7, 9, 10, 4]


@pytest.mark.parametrize("e", [-2.0, -3.0, math.nan, math.inf])
def test_bad_delta_exponent_raises_before_any_trial(dh11, monkeypatch, e):
    import srip.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a trial was drawn before the delta exponent was checked")

    monkeypatch.setattr(srip.spectra, "gram_sample", refuse)
    with pytest.raises(ValueError, match="delta exponent"):
        srip_tail_frequencies(dh11, 0.3, delta_exponent=e)
    with pytest.raises(ValueError, match="delta exponent"):
        run_spectrum(dh11, 0.3, delta_exponent=e)


def test_sample_support_inclusion_frequencies(dh5):
    # per-atom inclusion frequency over many draws stays inside 3-sigma
    # binomial bands around n/N
    draws, n, N = 100_000, 6, dh5.atom_count
    counts = np.zeros(N, dtype=np.int64)
    for i in range(draws):
        counts[sample_support(dh5, n, i)] += 1
    prob = n / N
    sigma = math.sqrt(draws * prob * (1 - prob))
    assert np.abs(counts - draws * prob).max() <= 3 * sigma + 1e-9


def test_gram_sample_single_basis(single_basis5):
    s = sample_support(single_basis5, 4, 1)
    gs = gram_sample(single_basis5, s)
    assert np.abs(gs.G - np.eye(4)).max() <= 1e-12
    assert np.abs(gs.E).max() <= 1e-11
    assert np.abs(gs.eigenvalues).max() <= 1e-11


def test_gram_sample_size_one(dh5):
    gs = gram_sample(dh5, np.array([3]))
    assert np.abs(gs.G - 1.0).max() <= 1e-12
    assert np.abs(gs.E).max() <= 1e-11


def test_gram_sample_invariants(dh11):
    for seed in range(5):
        s = sample_support(dh11, 5, seed)
        gs = gram_sample(dh11, s)
        assert np.abs(np.diag(gs.G) - 1).max() <= 1e-9
        assert np.abs(gs.E - gs.E.conj().T).max() == 0.0
        scaled = math.sqrt(gs.p / gs.n) * (gs.G - np.eye(gs.n))
        assert np.abs(gs.E - scaled).max() <= 1e-12
        assert abs(gs.eigenvalues.sum()) <= 1e-8  # Tr E = 0, zero diagonal
        # operator-norm identity
        direct = op_norm(gs.G - np.eye(gs.n))
        via_E = math.sqrt(gs.n / gs.p) * np.abs(gs.eigenvalues).max()
        assert abs(direct - via_E) <= 1e-10


def test_rip_deviation_examples(dh5):
    s = sample_support(dh5, 4, 3)
    gs = gram_sample(dh5, s)
    identity_sample = GramSample(
        support=np.arange(3),
        G=np.eye(3, dtype=complex),
        E=np.zeros((3, 3), dtype=complex),
        eigenvalues=np.zeros(3),
        p=5,
        n=3,
    )
    assert rip_deviation(identity_sample) == 0.0
    # eigenvalues of G equal to {4, 1}: deviation sqrt(4) - 1 = 1
    eigs = np.array([3.0, 0.0]) / math.sqrt(2 / 5)
    four_one = GramSample(
        support=np.arange(2),
        G=np.eye(2, dtype=complex),
        E=np.zeros((2, 2), dtype=complex),
        eigenvalues=eigs,
        p=5,
        n=2,
    )
    assert rip_deviation(four_one) == pytest.approx(1.0, abs=1e-12)
    assert rip_deviation(gs) > 0


def test_rip_deviation_sandwich(dh11):
    # dev <= ||G - I|| <= 2 dev + dev^2
    for seed in range(10):
        gs = gram_sample(dh11, sample_support(dh11, 6, seed))
        dev = rip_deviation(gs)
        norm = math.sqrt(gs.n / gs.p) * np.abs(gs.eigenvalues).max()
        assert dev <= norm + 1e-9
        assert norm <= 2 * dev + dev * dev + 1e-9


def test_rip_deviation_against_iterative_maximization(dh11):
    # random search gives a lower bound; power iteration on shifted Gram
    # matrices pushes it to the true extremum
    s = sample_support(dh11, 8, 5)
    gs = gram_sample(dh11, s)
    dev = rip_deviation(gs)
    rng = np.random.default_rng(17)
    best = 0.0
    for _ in range(10_000):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        f /= np.linalg.norm(f)
        val = abs(math.sqrt((f.conj() @ gs.G @ f).real) - 1.0)
        best = max(best, val)
    assert best <= dev + 1e-9  # lower-bound property
    # refine toward both spectral edges
    for shift in (+4.0, -4.0):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        f /= np.linalg.norm(f)
        M = gs.G + shift * np.eye(8)
        for _ in range(200):
            f = M @ f
            f /= np.linalg.norm(f)
        best = max(best, abs(math.sqrt((f.conj() @ gs.G @ f).real) - 1.0))
    assert best == pytest.approx(dev, rel=0.02)


def test_srip_single_basis_control(single_basis5):
    tails = srip_tail_frequencies(single_basis5, epsilon=0.3, trials=50, seed=1)
    for t in tails:
        assert t.frequency == 0.0


def test_srip_frequency_monotone_in_threshold(dh11):
    norms = []
    for seed in range(60):
        gs = gram_sample(dh11, sample_support(dh11, 5, seed))
        norms.append(math.sqrt(gs.n / gs.p) * np.abs(gs.eigenvalues).max())
    norms = np.array(norms)
    grid = np.linspace(0.0, 2.0, 21)
    freqs = [(norms >= thr).mean() for thr in grid]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))


def test_srip_reports_both_threshold_kinds(dh11):
    tails = srip_tail_frequencies(dh11, epsilon=0.3, delta_exponent=0.5, trials=20, seed=2)
    kinds = {t.kind for t in tails}
    assert kinds == {"p^(-eps/2)", "(n/p)^(1/(2+e))"}
    assert tails[0].threshold == pytest.approx(11 ** (-0.15))
    assert tails[1].threshold == pytest.approx((5 / 11) ** (1 / 2.5))


def test_moment_statistics_first_moment_vanishes(dh11):
    stats = moment_statistics(dh11, epsilon=0.3, kmax=2, trials=100, seed=3)
    assert abs(stats[0].mean) <= 1e-8
    assert stats[0].k == 1 and stats[1].k == 2
    assert stats[1].variance >= 0.0


def test_moment_statistics_rejects_support_below_two(dh5):
    # floor(5^0.1) = 1: a 1 x 1 Gram matrix has no spectrum to speak of
    with pytest.raises(ValueError, match="too small"):
        moment_statistics(dh5, epsilon=0.9, kmax=2, trials=5, seed=0)


def test_campaign_rules_agree_across_reductions(dh5):
    for call in (moment_statistics, srip_tail_frequencies, run_spectrum):
        with pytest.raises(ValueError, match="too small"):
            call(dh5, epsilon=0.9, trials=5)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            call(dh5, epsilon=0.3, trials=0)
        with pytest.raises(ValueError, match="epsilon"):
            call(dh5, epsilon=1.5, trials=5)


def test_catalan_examples():
    assert [catalan_number(m) for m in range(5)] == [1, 1, 2, 5, 14]
    with pytest.raises(ValueError):
        catalan_number(-1)


def test_semicircle_moments():
    assert semicircle_moment(3) == 0
    assert semicircle_moment(0) == 1
    assert semicircle_moment(2) == 1
    assert semicircle_moment(4) == 2
    assert semicircle_moment(8) == 14


def test_semicircle_cdf_endpoints():
    assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-14)
    assert semicircle_cdf(2.0) == pytest.approx(1.0, abs=1e-14)
    assert semicircle_cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert semicircle_cdf(-5.0) == 0.0 and semicircle_cdf(5.0) == 1.0


def test_semicircle_density_normalizes():
    x = np.linspace(-2, 2, 20001)
    mass = np.trapezoid(semicircle_density(x), x)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_semicircle_cdf_matches_density_quadrature():
    xs = np.linspace(-2, 2, 9)
    for x in xs:
        grid = np.linspace(-2, x, 4001)
        quad = np.trapezoid(semicircle_density(grid), grid) if x > -2 else 0.0
        # trapezoid converges slowly near the square-root edges
        assert semicircle_cdf(x) == pytest.approx(quad, abs=1e-5)


def test_ks_statistic_self_consistency():
    # draw from the semicircle law by inverse CDF on a fine grid
    grid = np.linspace(-2.0, 2.0, 20001)
    cdf = semicircle_cdf(grid)
    rng = np.random.Generator(np.random.Philox(key=99))
    u = rng.uniform(size=100_000)
    sample = np.interp(u, cdf, grid)
    assert ks_statistic(sample) <= 0.01


def test_ks_statistic_detects_mismatch():
    rng = np.random.Generator(np.random.Philox(key=100))
    sample = rng.uniform(-2, 2, size=50_000)  # uniform, not semicircle
    assert ks_statistic(sample) > 0.05


def test_run_spectrum_report_consistency(dh11):
    rep = run_spectrum(dh11, epsilon=0.3, kmax=4, trials=30, seed=5)
    assert rep.n == 5
    assert rep.eigenvalues.size == 30 * 5
    assert sum(rep.histogram_counts) + rep.histogram_outside == rep.eigenvalues.size
    assert len(rep.moments) == 4
    assert 0.0 <= rep.ks_pooled <= 1.0
    d = rep.to_dict()
    assert d["eigenvalue_count"] == 150
    assert {t["threshold_kind"] for t in d["srip_tails"]} == {"p^(-eps/2)", "(n/p)^(1/(2+e))"}


def test_run_spectrum_deterministic(dh11):
    r1 = run_spectrum(dh11, epsilon=0.3, kmax=3, trials=20, seed=7)
    r2 = run_spectrum(dh11, epsilon=0.3, kmax=3, trials=20, seed=7)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)


def test_run_spectrum_threads_do_not_change_results(dh11):
    r1 = run_spectrum(dh11, epsilon=0.3, kmax=3, trials=16, seed=9, threads=1)
    r2 = run_spectrum(dh11, epsilon=0.3, kmax=3, trials=16, seed=9, threads=4)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
