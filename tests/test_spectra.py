import math

import numpy as np
import pytest

from srip.dictionaries import build_heisenberg_dictionary
from srip.errors import SupportTooLargeError
from srip.field import PrimeField
from srip.linalg import hermitian_eig
from srip.spectra import (
    _campaign,
    _gram_stack,
    catalan_number,
    check_seed,
    ks_statistic,
    run_spectrum,
    sample_support,
    semicircle_cdf,
    semicircle_moment,
)

from oracles import rip_deviation, semicircle_density


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


def test_the_support_stream_of_a_campaign_is_pinned():
    import hashlib

    from conftest import heisenberg_dict
    from srip.spectra import _keyed_draws

    D = heisenberg_dict(31)
    draws = np.stack([sample_support(D, 11, 42 + i) for i in range(200)])
    digest = hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest()
    assert digest == "b944da24d453f18bac8418986a85cf271d7b3638998dc4b9cedeb37ff43d42b4"
    assert np.array_equal(_keyed_draws(D.atom_count, 11).rows(range(42, 242)), draws)


@pytest.mark.parametrize("N, n", [
    (5, 5), (60, 20), (992, 11), (1014, 6), (10302, 25),
    (3 * 2**30, 5), (2**31 + 1, 7), (2**32, 9), (2**33, 9),
])
def test_chunk_draws_equal_the_per_key_draws(monkeypatch, N, n):
    import srip.spectra
    from srip.spectra import _keyed_draws

    key_ranges = (range(2000), range(2**64 - 1, 2**64 + 1), range(2**128 - 1, 2**128))
    per_key = _keyed_draws(N, n)
    wants = [np.stack([per_key(key) for key in keys]) for keys in key_ranges]
    redrawn = []  # the rows that the chunk draws per key
    distinct_indices = srip.spectra._distinct_indices
    monkeypatch.setattr(srip.spectra, "_distinct_indices",
                        lambda *args: redrawn.append(args) or distinct_indices(*args))
    chunk = _keyed_draws(N, n)
    for keys, want in zip(key_ranges, wants):
        got = chunk.rows(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want), keys
    if (N, n) in [(992, 11), (1014, 6), (10302, 25)]:
        # most rows come from the raw words, and the collisions go per key
        assert 0 < len(redrawn) < 300
    if N > 2**32:
        assert len(redrawn) == 2003


@pytest.mark.parametrize("e", [-2.0, -3.0, math.nan, math.inf])
def test_bad_delta_exponent_raises_before_any_trial(dh11, monkeypatch, e):
    import srip.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a trial was drawn before the delta exponent was checked")

    monkeypatch.setattr(srip.spectra, "_keyed_draws", refuse)
    with pytest.raises(ValueError, match="delta exponent"):
        run_spectrum(dh11, 0.3, delta_exponent=e)


@pytest.mark.parametrize("bad", [
    {"delta_exponent": -2.0}, {"kmax": 0}, {"seed": -1}, {"seed": 2**128 - 2, "trials": 3},
])
def test_bad_campaign_parameters_raise_before_any_support_is_drawn(dh11, monkeypatch, bad):
    import srip.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a support was drawn before the campaign parameters were checked")

    monkeypatch.setattr(srip.spectra, "_keyed_draws", refuse)
    with pytest.raises(ValueError, match="delta exponent|kmax|seed"):
        run_spectrum(dh11, 0.3, **bad)


def test_the_last_philox_key_is_a_valid_seed(dh5):
    check_seed(2**128 - 3, 3)
    with pytest.raises(ValueError, match="seed=340282366920938463463374607431768211454"):
        check_seed(2**128 - 2, 3)
    n, eigs = _campaign(dh5, 0.3, 3, 2**128 - 3)  # keys up to 2**128 - 1
    assert eigs.shape == (3, n)
    assert np.array_equal(eigs[2], _gram_stack(dh5, sample_support(dh5, n, 2**128 - 1)[None])[2][0])


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
    (G,), (E,), (eigenvalues,) = _gram_stack(single_basis5, s[None])
    assert np.abs(G - np.eye(4)).max() <= 1e-12
    assert np.abs(E).max() <= 1e-11
    assert np.abs(eigenvalues).max() <= 1e-11


def test_gram_sample_size_one(dh5):
    (G,), (E,), _ = _gram_stack(dh5, np.array([3])[None])
    assert np.abs(G - 1.0).max() <= 1e-12
    assert np.abs(E).max() <= 1e-11


def test_records_that_hold_arrays_compare_by_identity(dh5):
    # == on two equal but distinct builds or reports must not
    # compare their arrays elementwise, which raises
    D = build_heisenberg_dictionary(PrimeField(5))
    assert (D == dh5) is False and D == D
    r1, r2 = (run_spectrum(dh5, trials=3, seed=1) for _ in range(2))
    assert r1.to_dict() == r2.to_dict()
    assert (r1 == r2) is False and r1 == r1
    assert len({D, r1}) == 2


def test_gram_sample_invariants(dh11):
    for seed in range(5):
        s = sample_support(dh11, 5, seed)
        (G,), (E,), (eigenvalues,) = _gram_stack(dh11, s[None])
        p, n = dh11.p, len(s)
        assert np.abs(np.diag(G) - 1).max() <= 1e-9
        assert np.abs(E - E.conj().T).max() == 0.0
        scaled = math.sqrt(p / n) * (G - np.eye(n))
        assert np.abs(E - scaled).max() <= 1e-12
        assert abs(eigenvalues.sum()) <= 1e-8  # Tr E = 0, zero diagonal
        # operator-norm identity
        direct = np.abs(hermitian_eig(G - np.eye(n))).max()
        via_E = math.sqrt(n / p) * np.abs(eigenvalues).max()
        assert abs(direct - via_E) <= 1e-10


@pytest.mark.parametrize("kind, p, n", [("heisenberg", 31, 11), ("oscillator", 13, 6),
                                        ("heisenberg", 101, 63)])
def test_eigenvalues_only_solve_meets_exact_identities(kind, p, n):
    from conftest import heisenberg_dict, oscillator_dict

    D = (heisenberg_dict if kind == "heisenberg" else oscillator_dict)(p)
    supports = np.stack([sample_support(D, n, key) for key in range(20)])
    _, E, eigenvalues = _gram_stack(D, supports)
    for e, lam in zip(E, eigenvalues):
        assert np.all(np.diff(lam) <= 0)
        assert abs(lam.sum()) <= 1e-12  # Tr E = 0
        frobenius = np.sum(np.abs(e) ** 2)
        assert abs(np.sum(lam**2) - frobenius) <= 1e-12 * frobenius
        assert np.abs(lam - np.linalg.eigh(e)[0][::-1]).max() <= 1e-13


def test_rip_deviation_examples(dh5):
    s = sample_support(dh5, 4, 3)
    (G,), _, _ = _gram_stack(dh5, s[None])
    assert rip_deviation(np.eye(3, dtype=complex)) == 0.0
    # eigenvalues of G equal to {4, 1}: deviation sqrt(4) - 1 = 1
    four_one = np.diag([4.0, 1.0]).astype(complex)
    assert rip_deviation(four_one) == pytest.approx(1.0, abs=1e-12)
    assert rip_deviation(G) > 0


def test_rip_deviation_sandwich(dh11):
    # dev <= ||G - I|| <= 2 dev + dev^2
    for seed in range(10):
        (G,), _, (eigenvalues,) = _gram_stack(dh11, sample_support(dh11, 6, seed)[None])
        dev = rip_deviation(G)
        norm = math.sqrt(6 / dh11.p) * np.abs(eigenvalues).max()
        assert dev <= norm + 1e-9
        assert norm <= 2 * dev + dev * dev + 1e-9


def test_rip_deviation_against_iterative_maximization(dh11):
    # random search gives a lower bound; power iteration on shifted Gram
    # matrices pushes it to the true extremum
    s = sample_support(dh11, 8, 5)
    (G,), _, _ = _gram_stack(dh11, s[None])
    dev = rip_deviation(G)
    rng = np.random.default_rng(17)
    best = 0.0
    for _ in range(10_000):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        f /= np.linalg.norm(f)
        val = abs(math.sqrt((f.conj() @ G @ f).real) - 1.0)
        best = max(best, val)
    assert best <= dev + 1e-9  # lower-bound property
    # refine toward both spectral edges
    for shift in (+4.0, -4.0):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        f /= np.linalg.norm(f)
        M = G + shift * np.eye(8)
        for _ in range(200):
            f = M @ f
            f /= np.linalg.norm(f)
        best = max(best, abs(math.sqrt((f.conj() @ G @ f).real) - 1.0))
    assert best == pytest.approx(dev, rel=0.02)


def test_srip_single_basis_control(single_basis5):
    tails = run_spectrum(single_basis5, epsilon=0.3, trials=50, seed=1).tails
    for t in tails:
        assert t.frequency == 0.0


def test_srip_frequency_monotone_in_threshold(dh11):
    norms = []
    for seed in range(60):
        _, _, (eigenvalues,) = _gram_stack(dh11, sample_support(dh11, 5, seed)[None])
        norms.append(math.sqrt(5 / dh11.p) * np.abs(eigenvalues).max())
    norms = np.array(norms)
    grid = np.linspace(0.0, 2.0, 21)
    freqs = [(norms >= thr).mean() for thr in grid]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))


def test_srip_reports_both_threshold_kinds(dh11):
    tails = run_spectrum(dh11, epsilon=0.3, delta_exponent=0.5, trials=20, seed=2).tails
    kinds = {t.kind for t in tails}
    assert kinds == {"p^(-eps/2)", "(n/p)^(1/(2+e))"}
    assert tails[0].threshold == pytest.approx(11 ** (-0.15))
    assert tails[1].threshold == pytest.approx((5 / 11) ** (1 / 2.5))


def test_moment_statistics_first_moment_vanishes(dh11):
    stats = run_spectrum(dh11, epsilon=0.3, kmax=2, trials=100, seed=3).moments
    assert abs(stats[0].mean) <= 1e-8
    assert stats[0].k == 1 and stats[1].k == 2
    assert stats[1].variance >= 0.0


def test_moment_statistics_rejects_support_below_two(dh5):
    # floor(5^0.1) = 1: a 1 x 1 Gram matrix has no spectrum to speak of
    with pytest.raises(ValueError, match="too small"):
        run_spectrum(dh5, epsilon=0.9, kmax=2, trials=5, seed=0)


def test_campaign_rules_agree_across_reductions(dh5):
    with pytest.raises(ValueError, match="too small"):
        run_spectrum(dh5, epsilon=0.9, trials=5)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_spectrum(dh5, epsilon=0.3, trials=0)
    with pytest.raises(ValueError, match="epsilon"):
        run_spectrum(dh5, epsilon=1.5, trials=5)


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


@pytest.mark.parametrize("kind, p", [("heisenberg", 11), ("oscillator", 7)])
@pytest.mark.parametrize("trials", [1, 31, 32, 33])
def test_campaign_equals_the_per_trial_gram_samples(monkeypatch, kind, p, trials):
    import srip.linalg as linalg
    from conftest import heisenberg_dict, oscillator_dict
    from srip.paths import support_size

    D = (heisenberg_dict if kind == "heisenberg" else oscillator_dict)(p)
    # 32 trials to a chunk, so the trial counts straddle a chunk boundary
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 32 * 4 * p * support_size(p, 0.3))
    n, eigs = _campaign(D, 0.3, trials, 17)
    want = np.stack([_gram_stack(D, sample_support(D, n, 17 + i)[None])[2][0]
                     for i in range(trials)])
    assert eigs.shape == (trials, n) and eigs.dtype == want.dtype
    assert np.array_equal(eigs, want)


def test_stacked_ks_statistic_equals_the_row_statistics():
    rng = np.random.Generator(np.random.Philox(key=3))
    stack = rng.uniform(-2.5, 2.5, size=(4, 3, 9))
    got = ks_statistic(stack)
    assert got.shape == (4, 3)
    for idx in np.ndindex(4, 3):
        row = ks_statistic(stack[idx])
        assert isinstance(row, float) and got[idx] == row
    with pytest.raises(ValueError, match="empty"):
        ks_statistic(np.zeros((3, 0)))


@pytest.mark.parametrize("N, n", [(5, 1), (5, 5), (50, 7), (992, 31), (10302, 40), (2**33, 9)])
def test_one_rekeyed_philox_draws_what_a_fresh_generator_draws(N, n):
    from srip.paths import _distinct_indices
    from srip.spectra import _keyed_draws

    class _Size:  # sample_support reads only the atom count
        atom_count = N

    rng = np.random.default_rng(N + n)
    keys = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
    keys += [int(k) for k in rng.integers(0, 2**63, size=20)]
    keys += [int(a) << 64 | int(b) for a, b in rng.integers(0, 2**63, size=(20, 2))]
    draw = _keyed_draws(N, n)  # one generator, re-keyed for every draw below
    for key in keys + keys[::-1]:
        want = _distinct_indices(np.random.Generator(np.random.Philox(key=key)), N, n)
        got = draw(key)
        assert got.dtype == want.dtype and np.array_equal(got, want), key
        assert np.array_equal(sample_support(_Size, n, key), want), key


def test_campaign_memory_is_the_eigenvalues_plus_a_few_chunks():
    import tracemalloc

    from conftest import heisenberg_dict

    D = heisenberg_dict(101)
    _campaign(D, 0.1, 2, 0)  # first-call caches
    tracemalloc.start()
    try:
        n, eigs = _campaign(D, 0.1, 200, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 63
    assert peak - eigs.nbytes <= 2 * 2**20
