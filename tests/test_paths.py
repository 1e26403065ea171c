import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srip import paths
from srip.cli import main
from srip.dictionaries import Dictionary, build_extended_oscillator_dictionary
from srip.errors import BudgetExceededError, NotATreeError
from srip.field import PrimeField
from srip.linalg import gram
from srip.paths import (
    PathClass,
    _expected_weights,
    canonicalize,
    class_normalization,
    class_size,
    enumerate_path_classes,
    exact_spectral_moment,
    support_size,
    trajectory_table,
    tree_to_dyck,
    within_budget,
)
from srip.spectra import catalan_number, run_spectrum

from conftest import heisenberg_dict, oscillator_dict
from oracles import (
    SingleVisitError,
    brute_expected_weight,
    completeness_residual,
    delete_vertex,
    dense_fisher_yates,
    dyck_to_tree,
    first_visit_form,
    interleave,
    random_hermitian,
    replace_vertex,
    strict_closed_paths,
    tail_bound_exponent,
    tight_frame_m2,
    tight_frame_m3,
    trace_by_path_sum,
)


# ---------------------------------------------------------------------------
# classes and enumeration
# ---------------------------------------------------------------------------


def test_path_class_validation():
    PathClass((1, 2, 1))
    with pytest.raises(ValueError):
        PathClass((1, 2))  # too short
    with pytest.raises(ValueError):
        PathClass((1, 2, 2, 1))  # strictness
    with pytest.raises(ValueError):
        PathClass((1, 3, 1))  # first-visit numbering
    with pytest.raises(ValueError):
        PathClass((1, 2, 3))  # not closed


def test_enumerate_k2_single_class():
    assert enumerate_path_classes(2) == [PathClass((1, 2, 1))]


def test_enumerate_contains_longer_class():
    assert PathClass((1, 2, 3, 1, 2, 1)) in enumerate_path_classes(5)


def test_canonicalize_matches_example():
    # (a, b, c, a, b, a) -> (1, 2, 3, 1, 2, 1)
    assert canonicalize(("a", "b", "c", "a", "b", "a")).steps == (1, 2, 3, 1, 2, 1)


@given(
    walk=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=8),
    relabel=st.permutations(list(range(5))),
)
def test_canonical_form_is_relabeling_invariant(walk, relabel):
    closed = walk + [walk[0]]
    assume(all(a != b for a, b in zip(closed, closed[1:])))
    pc = canonicalize(closed)
    assert canonicalize([relabel[v] for v in closed]) == pc
    assert canonicalize(pc.steps) == pc  # idempotent


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumeration_matches_labeled_bruteforce(k):
    classes = set(enumerate_path_classes(k))
    brute = {first_visit_form(pth) for pth in strict_closed_paths(k, k)}
    assert classes == {PathClass(b) for b in brute}


@pytest.mark.parametrize("k,n", [(3, 5), (4, 6), (5, 6), (6, 8)])
def test_enumeration_completeness_identity(k, n):
    # sum of |class| over classes equals the count of labeled paths on [1, n]
    total = sum(class_size(pc, n) for pc in enumerate_path_classes(k))
    assert total == len(strict_closed_paths(n, k))


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_path_classes(11)
    with pytest.raises(BudgetExceededError):
        enumerate_path_classes(1)


def test_classification_examples():
    two_step = PathClass((1, 2, 1))
    assert two_step.is_tree and two_step.vertex_count == 2
    triangle = PathClass((1, 2, 3, 1))
    assert not triangle.is_tree and triangle.vertex_count == 3
    doubled = PathClass((1, 2, 1, 2, 1))
    assert not doubled.is_tree  # edge crossed twice per direction


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_trees_satisfy_length_relation(k):
    for pc in enumerate_path_classes(k):
        if pc.is_tree:
            assert pc.k == 2 * (pc.vertex_count - 1)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_odd_lengths_have_no_trees(k):
    assert not any(pc.is_tree for pc in enumerate_path_classes(k))


# ---------------------------------------------------------------------------
# Dyck encoding
# ---------------------------------------------------------------------------


def test_dyck_of_single_edge():
    assert tree_to_dyck(PathClass((1, 2, 1))) == (1, -1)


@pytest.mark.parametrize("k,count", [(2, 1), (4, 2), (6, 5), (8, 14)])
def test_tree_counts_are_catalan(k, count):
    trees = [pc for pc in enumerate_path_classes(k) if pc.is_tree]
    assert len(trees) == count == catalan_number(k // 2)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_dyck_round_trip(k):
    for pc in enumerate_path_classes(k):
        if pc.is_tree:
            word = tree_to_dyck(pc)
            assert sum(word) == 0
            assert min(np.cumsum(word)) >= 0
            assert dyck_to_tree(word) == pc


def test_dyck_words_biject_onto_trees():
    # every valid word of length 6 produces a distinct tree class
    words = []
    for bits in range(64):
        word = tuple(1 if bits & (1 << i) else -1 for i in range(6))
        sums = np.cumsum(word)
        if sums.min() >= 0 and sums[-1] == 0:
            words.append(word)
    assert len(words) == 5
    trees = {dyck_to_tree(w) for w in words}
    assert len(trees) == 5
    assert all(t.is_tree for t in trees)


def test_dyck_errors():
    with pytest.raises(NotATreeError):
        tree_to_dyck(PathClass((1, 2, 3, 1)))
    with pytest.raises(ValueError):
        dyck_to_tree((1, 1))  # nonzero sum
    with pytest.raises(ValueError):
        dyck_to_tree((-1, 1))  # negative prefix
    with pytest.raises(ValueError):
        dyck_to_tree((1, 0))


@given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=10))
def test_dyck_to_tree_never_accepts_invalid(word):
    sums = np.cumsum(word)
    valid = sums.min() >= 0 and sums[-1] == 0
    if valid:
        pc = dyck_to_tree(tuple(word))
        assert pc.is_tree
        assert tree_to_dyck(pc) == tuple(word)
    else:
        with pytest.raises(ValueError):
            dyck_to_tree(tuple(word))


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------


def test_expected_weight_two_step_closed_form(dh5):
    # cross pairs have |<phi, psi>|^2 = 1/p; the average over ordered pairs
    # is p / (p^2 + p - 1)
    value = _expected_weights([PathClass((1, 2, 1))], dh5)[0]
    assert abs(value - 5 / 29) <= 1e-12
    assert abs(value.imag) <= 1e-14


@pytest.mark.parametrize("steps", [(1, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2, 1), (1, 2, 1, 2, 1)])
def test_expected_weight_matches_bruteforce(steps, dh5):
    impl = _expected_weights([PathClass(steps)], dh5)[0]
    brute = brute_expected_weight(steps, dh5.atoms_matrix)
    assert abs(impl - brute) <= 1e-12


def test_expected_weight_four_vertices_against_bruteforce(single_basis5, dh5):
    # small dictionary keeps the literal enumeration cheap
    sub = Dictionary(5, "heisenberg", 1.0, dh5.labels[:2], dh5.stack[:2])
    impl = _expected_weights([PathClass((1, 2, 3, 4, 1))], sub)[0]
    brute = brute_expected_weight((1, 2, 3, 4, 1), sub.atoms_matrix)
    assert abs(impl - brute) <= 1e-12


def test_expected_weight_single_basis_vanishes(single_basis5):
    for steps in [(1, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2, 1)]:
        assert abs(_expected_weights([PathClass(steps)], single_basis5)[0]) <= 1e-15


def test_expected_weight_invariant_under_relabeling(dh5):
    # the expectation depends only on the isomorphism class
    reference = _expected_weights([PathClass((1, 2, 3, 2, 1))], dh5)[0]
    rng = np.random.default_rng(4)
    for _ in range(5):
        relabel = {v: int(x) for v, x in zip((1, 2, 3), rng.permutation(100)[:3])}
        walk = tuple(relabel[v] for v in (1, 2, 3, 2, 1))
        brute = brute_expected_weight(walk, dh5.atoms_matrix)
        assert abs(brute - reference) <= 1e-12


def test_expected_weight_budgets(dh5):
    with pytest.raises(BudgetExceededError):
        _expected_weights([PathClass((1, 2, 3, 4, 5, 1))], dh5)[0]  # 5 vertices
    big = heisenberg_dict(31)
    with pytest.raises(BudgetExceededError):
        _expected_weights([PathClass((1, 2, 3, 1))], big)[0]  # 992 atoms, 3 vertices
    # but two-vertex classes are allowed on the large dictionary
    value = _expected_weights([PathClass((1, 2, 1))], big)[0]
    assert abs(value - 31 / (31 * 31 + 31 - 1)) <= 1e-12


@pytest.mark.parametrize("p", [5, 31])
def test_budget_predicate_agrees_with_expected_weight(p):
    D = heisenberg_dict(p)
    verdicts = set()
    for k in range(2, 6):
        for pc in enumerate_path_classes(k):
            allowed = within_budget(pc.vertex_count, D.atom_count)
            verdicts.add(allowed)
            if allowed:
                _expected_weights([pc], D)[0]
            else:
                with pytest.raises(BudgetExceededError):
                    _expected_weights([pc], D)[0]
    assert verdicts == {True, False}


def test_budget_predicate_edges():
    assert within_budget(2, 2000) and not within_budget(2, 2001)
    assert within_budget(4, 400) and not within_budget(3, 401)
    assert not within_budget(5, 1)


def _merged_walks(max_k: int):
    """(edges, block count) of every vertex-merge pattern of every class up to max_k."""
    for k in range(2, max_k + 1):
        for pc in enumerate_path_classes(k):
            if pc.vertex_count > paths.MAX_VERTICES:
                continue
            edges = [(u - 1, v - 1) for u, v in zip(pc.steps, pc.steps[1:])]
            for partition in paths._set_partitions(list(range(pc.vertex_count))):
                block_of = {v: b for b, block in enumerate(partition) for v in block}
                yield [(block_of[u], block_of[v]) for u, v in edges], len(partition)


@pytest.mark.parametrize("hermitian", [True, False])
def test_merged_walk_sum_is_invariant_under_block_relabelling(hermitian):
    # the memo of merged-walk sums keys a walk by its canonical form
    rng = np.random.default_rng(21)
    n = 6
    if hermitian:
        G = random_hermitian(rng, n)
    else:
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for edges, blocks in _merged_walks(5):
        value = paths._merged_walk_sum(edges, blocks, G)
        for perm in itertools.permutations(range(blocks)):
            relabelled = [(perm[u], perm[v]) for u, v in edges]
            assert paths._walk_key(relabelled, blocks) == paths._walk_key(edges, blocks)
            other = paths._merged_walk_sum(relabelled, blocks, G)
            assert abs(other - value) <= 1e-12 * max(1.0, abs(value))


def test_batch_weights_match_per_class_and_bruteforce(dh5):
    classes = [pc for k in (2, 3, 4) for pc in enumerate_path_classes(k)]
    batch = paths._expected_weights(classes, dh5)
    assert len(batch) == len(classes)
    for pc, value in zip(classes, batch):
        assert abs(value - _expected_weights([pc], dh5)[0]) <= 1e-12
        assert abs(value - brute_expected_weight(pc.steps, dh5.atoms_matrix)) <= 1e-12


def _gram_route_copy(D: Dictionary) -> Dictionary:
    """D's stack as a dictionary that is no orbit, so its two-block cores are
    summed over every pair of bases (the pairwise scan), not the anchor row."""
    return Dictionary(D.p, D.kind, D.mu, D.labels, D.stack)


def _two_block_key(x: int):
    """The ``_walk_key`` of the two-block core with x edges each way:
    sum_{a,b} |G[a, b]|^(2x)."""
    return paths._walk_key([(0, 1)] * x + [(1, 0)] * x, 2)


def test_trajectory_table_contracts_each_distinct_walk_once(dh5, monkeypatch):
    # 352 vertex-merge patterns over the k = 6 classes, 21 distinct merged walks;
    # the one dictionary sums its distinct cores in one call
    D = _gram_route_copy(dh5)
    calls = []
    core_sums = paths._core_sums

    def counting(D, keys):
        calls.append(len(keys))
        return core_sums(D, keys)

    monkeypatch.setattr(paths, "_core_sums", counting)
    usable = [
        pc for pc in enumerate_path_classes(6) if within_budget(pc.vertex_count, D.atom_count)
    ]
    trajectory_table({5: D}, usable, fixed_n=3)
    assert len(calls) == 1
    assert 0 < calls[0] <= 21


def test_orbit_reads_each_two_block_core_from_the_anchor_row_once(dh5, monkeypatch):
    # k = 6 leaves two two-block cores, S4 and S6: on an orbit both are summed
    # in one scan of the anchor row, and no core reaches the Gram
    gram_walks = []
    scans = []
    contract = paths._merged_walk_sum
    cross_blocks = paths._cross_blocks

    def counting(edges, blocks, G):
        gram_walks.append(blocks)
        return contract(edges, blocks, G)

    def scanning(D):
        scans.append(D.orbit)
        return cross_blocks(D)

    monkeypatch.setattr(paths, "_merged_walk_sum", counting)
    monkeypatch.setattr(paths, "_cross_blocks", scanning)
    usable = [
        pc for pc in enumerate_path_classes(6) if within_budget(pc.vertex_count, dh5.atom_count)
    ]
    trajectory_table({5: dh5}, usable, fixed_n=3)
    assert gram_walks == []
    assert scans == [True]


@pytest.mark.parametrize("form", ["orbit", "copy"])
def test_k8_sums_every_core_from_one_scan(dh5, form, monkeypatch):
    # S4, S6 and S8 share one pass of _cross_blocks; S2 and the Gram are
    # each formed at most once for all the cores that need them
    D = dh5 if form == "orbit" else _gram_route_copy(dh5)
    calls = []
    for name in ("_cross_blocks", "_s2", "gram"):
        real = getattr(paths, name)

        def counting(M, name=name, real=real):
            calls.append(name)
            return real(M)

        monkeypatch.setattr(paths, name, counting)
    usable = [
        pc for pc in enumerate_path_classes(8) if within_budget(pc.vertex_count, D.atom_count)
    ]
    _expected_weights(usable, D)
    assert calls.count("_cross_blocks") == 1
    assert calls.count("_s2") <= 1
    assert calls.count("gram") <= 1


def test_core_sums_do_not_depend_on_the_keys_that_share_the_call(dh5):
    keys = {
        key
        for k in range(2, 9)
        for pc in enumerate_path_classes(k)
        if pc.vertex_count <= paths.MAX_VERTICES
        for (_, _, key), _ in paths._first_visit_expansion(pc.steps)
        if key[0]
    }
    for D in (dh5, oscillator_dict(7), _extended7_subsample()):
        together = paths._core_sums(D, keys)
        assert together.keys() == keys
        for key in keys:
            assert together[key] == paths._core_sums(D, {key})[key]

@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_orbit_two_block_cores_equal_the_heisenberg_closed_forms(p):
    # S4 = N + N(N-p)/p^2 and S6 = N + N(N-p)/p^3 on the p+1 mutually unbiased bases
    D = heisenberg_dict(p)
    N = D.atom_count
    for x, exact in ((2, N + N * (N - p) / p**2), (3, N + N * (N - p) / p**3)):
        key = _two_block_key(x)
        value = paths._core_sums(D, {key})[key]
        assert abs(value - exact) <= 1e-13 * exact


def _orbit_build(kind: str, p: int) -> Dictionary:
    if kind == "heisenberg":
        return heisenberg_dict(p)
    if kind == "oscillator":
        return oscillator_dict(p)
    return build_extended_oscillator_dictionary(PrimeField(p))


@pytest.mark.parametrize("kind, p", [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19)]
                         + [("oscillator", p) for p in (5, 7, 13)]
                         + [("extended_oscillator", 5)])
def test_orbit_two_block_cores_equal_the_gram_route(kind, p):
    D = _orbit_build(kind, p)
    assert D.orbit
    for x in (2, 3, 4):
        key = _two_block_key(x)
        orbit_sum = paths._core_sums(D, {key})[key]
        gram_sum = paths._core_sums(_gram_route_copy(D), {key})[key]
        assert abs(orbit_sum - gram_sum) <= 1e-13 * abs(gram_sum)


# T1 = sum |G_ab G_bc G_ca|^2, every triangle edge once each way, and
# T2 = sum (G_ab G_bc G_ca)^2, the cycle twice
_TRIANGLE_KEYS = {
    "T1": paths._walk_key([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], 3),
    "T2": paths._walk_key([(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)], 3),
}


@pytest.mark.parametrize("kind, p", [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19)]
                         + [("oscillator", p) for p in (5, 7, 13)]
                         + [("extended_oscillator", 5)])
def test_orbit_triangle_cores_equal_the_gram_route(kind, p):
    D = _orbit_build(kind, p)
    assert D.orbit
    keys = set(_TRIANGLE_KEYS.values())
    anchor = paths._core_sums(D, keys)
    reference = paths._core_sums(_gram_route_copy(D), keys)
    for key in keys:
        assert abs(anchor[key] - reference[key]) <= 1e-13 * abs(reference[key])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_orbit_triangle_cores_equal_the_heisenberg_closed_forms(p):
    # the p + 1 mutually unbiased bases form a 2-design: T1 = N + 3N(N-p)/p^2
    # + N(N-p)(N-2p)/p^3 and T2 = 4p(p+1), so 240 and 120 at p = 5
    D = heisenberg_dict(p)
    N = D.atom_count
    closed = {"T1": N + 3 * N * (N - p) / p**2 + N * (N - p) * (N - 2 * p) / p**3,
              "T2": 4 * p * (p + 1)}
    sums = paths._core_sums(D, set(_TRIANGLE_KEYS.values()))
    for name, key in _TRIANGLE_KEYS.items():
        assert abs(sums[key] - closed[name]) <= 1e-13 * closed[name]


@pytest.mark.parametrize("make, panels", [(lambda: oscillator_dict(13), 16),
                                          (lambda: heisenberg_dict(13), 3)],
                         ids=["oscillator13", "heisenberg13"])
def test_orbit_cores_summed_over_several_panels(monkeypatch, make, panels):
    # 5 bases of p = 13 per panel, each adding its own term to the triangle sums
    import srip.linalg as linalg

    D = make()
    keys = {_two_block_key(2), _two_block_key(3), *_TRIANGLE_KEYS.values()}
    uncut = paths._core_sums(D, keys)
    reference = paths._core_sums(_gram_route_copy(D), keys)
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 1000)
    assert len(linalg.chunks(D.basis_count - 1, D.p * D.p)) == panels
    cut = paths._core_sums(D, keys)
    for key in keys:
        assert abs(cut[key] - uncut[key]) <= 1e-13 * abs(uncut[key])
        assert abs(cut[key] - reference[key]) <= 1e-13 * abs(reference[key])


def test_orbit_k6_forms_no_s2(dh5, tmp_path, monkeypatch):
    # on an orbit every k = 6 core comes from the anchor row; the non-orbit
    # copy still forms S2, once, for its two triangle cores
    real = paths._s2

    def refuse(D):
        raise AssertionError("S2 was formed")

    monkeypatch.setattr(paths, "_s2", refuse)
    argv = ["paths-verify", "--k", "6", "--ladder", "5,7", "--fixed-n", "3",
            "--out-prefix", str(tmp_path / "pv")]
    assert main(argv) == 0
    assert (tmp_path / "pv.estimates.csv").exists()
    for D in (heisenberg_dict(19), oscillator_dict(7)):
        usable = [pc for pc in enumerate_path_classes(6)
                  if within_budget(pc.vertex_count, D.atom_count)]
        assert len(_expected_weights(usable, D)) == len(usable)

    formed = []

    def counting(D):
        formed.append(D.orbit)
        return real(D)

    monkeypatch.setattr(paths, "_s2", counting)
    D = _gram_route_copy(dh5)
    _expected_weights([pc for pc in enumerate_path_classes(6)
                       if within_budget(pc.vertex_count, D.atom_count)], D)
    assert formed == [False]


@pytest.mark.parametrize("kind, p", [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19)]
                         + [("oscillator", 7)])
def test_orbit_exact_moments_equal_the_gram_route(kind, p):
    D = _orbit_build(kind, p)
    copy = _gram_route_copy(D)
    for n in (3, support_size(D.p, 0.3)):
        for k in (2, 3, 4):
            orbit = exact_spectral_moment(D, n, k)
            assert abs(orbit - exact_spectral_moment(copy, n, k)) <= 1e-12


def test_orbit_moments_and_paths_verify_form_no_gram(tmp_path, monkeypatch):
    def refuse(M):
        raise AssertionError("an N x N Gram was formed")

    monkeypatch.setattr(paths, "gram", refuse)
    for D in (heisenberg_dict(5), heisenberg_dict(19), oscillator_dict(7)):
        assert exact_spectral_moment(D, 3, 4) > 0
    argv = ["paths-verify", "--k", "6", "--ladder", "5,7", "--fixed-n", "3",
            "--out-prefix", str(tmp_path / "pv")]
    assert main(argv) == 0
    assert (tmp_path / "pv.estimates.csv").exists()


def _extended7_subsample() -> Dictionary:
    # 3 translations: nb = 63 and N = 441 are odd, so N/2 is no integer
    return build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=3)


def _scan_dictionary(kind: str, p: int, form: str) -> Dictionary:
    if form == "subsample":
        return _extended7_subsample()
    D = _orbit_build(kind, p)
    if form == "reversed":
        return Dictionary(p, kind, D.mu, D.labels[::-1], D.stack[::-1])
    if form == "one basis":
        return Dictionary(p, kind, D.mu, D.labels[:1], D.stack[:1])
    return D if form == "orbit" else _gram_route_copy(D)


@pytest.mark.parametrize("kind, p, form", [
    (kind, p, form)
    for kind, p in [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19)]
    + [("oscillator", 7), ("oscillator", 13), ("extended_oscillator", 5)]
    for form in ("orbit", "copy")
] + [("extended_oscillator", 7, "subsample"), ("heisenberg", 7, "reversed"),
     ("heisenberg", 5, "one basis")])
def test_two_block_scan_equals_the_gram_reference(kind, p, form):
    D = _scan_dictionary(kind, p, form)
    G = gram(D.atoms_matrix)
    for x in (2, 3, 4, 5):
        key = blocks, edges = _two_block_key(x)
        reference = paths._merged_walk_sum(edges, blocks, G)
        core_sum = paths._core_sums(D, {key})[key]
        assert abs(core_sum - reference) <= 1e-13 * abs(reference)
        if D.basis_count == 1:
            assert core_sum == p


def test_non_orbit_cores_up_to_k6_form_no_gram(monkeypatch):
    def refuse(M):
        raise AssertionError("an N x N Gram was formed")

    monkeypatch.setattr(paths, "gram", refuse)
    for D in (heisenberg_dict(5), heisenberg_dict(19), oscillator_dict(7)):
        assert exact_spectral_moment(_gram_route_copy(D), 3, 4) > 0
    # two vertices on 441 atoms: within the budget of a class of at most 2 vertices
    (weight,) = _expected_weights([PathClass((1, 2, 1, 2, 1))], _extended7_subsample())
    assert weight.real > 0


def test_reduced_walk_sums_match_the_atom_space_contraction(dh5, monkeypatch):
    # every merge pattern up to k = 8: the tight-frame reduction, and the
    # routes of the cores it leaves, against the unreduced einsum; the orbit
    # sums its three-block degree-2 cores from the anchor row, so only its
    # four-block ones reach S2, while its non-orbit copy sends both to S2
    G = dh5.atoms_matrix.T @ dh5.atoms_matrix.conj()
    in_p_dims = []
    contract = paths._degree2_core_sum

    def counting(edges, blocks, S2):
        in_p_dims.append(blocks)
        return contract(edges, blocks, S2)

    monkeypatch.setattr(paths, "_degree2_core_sum", counting)
    oracle = {}
    for D, routed in ((dh5, [4]), (_gram_route_copy(dh5), [3, 4])):
        in_p_dims.clear()
        for edges, blocks in _merged_walks(8):
            key = paths._walk_key(edges, blocks)
            if key not in oracle:
                oracle[key] = paths._merged_walk_sum(edges, blocks, G)
            summed, isolated, core, m = paths._reduce_walk(edges, blocks)
            value = D.basis_count**summed * D.atom_count**isolated
            if m:
                core_key = paths._walk_key(core, m)
                value *= paths._core_sums(D, {core_key})[core_key]
            assert abs(value - oracle[key]) <= 1e-12 * abs(oracle[key])
        assert sorted(set(in_p_dims)) == routed


def test_k8_contracts_no_degree2_core_in_atom_space(dh5, monkeypatch):
    # the K4-like four-block walks, and every core of degree-2 blocks, are
    # contracted in p dimensions; the atom-space einsum sees only two-block
    # cores and three-block cores with a block of degree 3 or more
    atom_space = []
    contract = paths._merged_walk_sum

    def recording(edges, blocks, G):
        atom_space.append((list(edges), blocks))
        return contract(edges, blocks, G)

    monkeypatch.setattr(paths, "_merged_walk_sum", recording)
    usable = [
        pc for pc in enumerate_path_classes(8) if within_budget(pc.vertex_count, dh5.atom_count)
    ]
    paths._expected_weights(usable, dh5)
    assert atom_space
    for edges, blocks in atom_space:
        assert blocks <= 3
        if blocks == 3:
            assert max(sum(u == b for u, _ in edges) for b in range(blocks)) >= 3


def test_each_class_is_expanded_once(dh5, dh7, monkeypatch):
    # one _reduce_walk call per vertex-merge pattern of each class expanded:
    # the four k = 4 classes have 2 + 5 + 5 + 15 = 27 patterns and the k = 6
    # classes within the budget 352, on however many dictionaries they are used
    calls = []
    reduce_walk = paths._reduce_walk

    def counting(edges, blocks):
        calls.append(blocks)
        return reduce_walk(edges, blocks)

    monkeypatch.setattr(paths, "_reduce_walk", counting)
    paths._first_visit_expansion.cache_clear()
    for D in (dh5, dh7, oscillator_dict(7)):
        exact_spectral_moment(D, 4, 4)
    assert len(calls) == 27

    paths._first_visit_expansion.cache_clear()
    calls.clear()
    ladder = {p: heisenberg_dict(p) for p in (5, 7, 11)}
    usable = [
        pc for pc in enumerate_path_classes(6)
        if all(within_budget(pc.vertex_count, D.atom_count) for D in ladder.values())
    ]
    trajectory_table(ladder, usable, fixed_n=3)
    assert len(calls) == 352


def test_degree2_cores_contract_in_p_dims_with_fewer_bases_than_p(dh5, monkeypatch):
    # N = 10 < p^2 = 25: the degree-2 cores still go to S2, and every k = 6
    # class within the budget matches the literal enumeration
    sub = Dictionary(5, "heisenberg", 1.0, dh5.labels[:2], dh5.stack[:2])
    in_p_dims = []
    contract = paths._degree2_core_sum

    def counting(edges, blocks, S2):
        in_p_dims.append(blocks)
        return contract(edges, blocks, S2)

    monkeypatch.setattr(paths, "_degree2_core_sum", counting)
    usable = [
        pc for pc in enumerate_path_classes(6) if within_budget(pc.vertex_count, sub.atom_count)
    ]
    for pc, value in zip(usable, paths._expected_weights(usable, sub)):
        assert abs(value - brute_expected_weight(pc.steps, sub.atoms_matrix)) <= 1e-12
    assert in_p_dims


def test_class_size_and_normalization_examples():
    pc = PathClass((1, 2, 3, 1, 2, 1))
    assert class_size(pc, 10) == 720
    assert class_size(pc, 2) == 0
    two_step = PathClass((1, 2, 1))
    assert class_normalization(two_step, 3, 5) == pytest.approx(5.0)
    assert class_normalization(two_step, 99, 5) == pytest.approx(5.0)  # n-free on trees


def test_tail_bound_exponent_sign():
    for k in (2, 3, 4, 5, 6):
        for pc in enumerate_path_classes(k):
            exponent = tail_bound_exponent(pc, 0.3)
            if pc.k > 2 * (pc.vertex_count - 1):
                assert exponent < 0
            else:
                assert exponent >= 0


@pytest.mark.parametrize("fixed_n", [0, -2])
def test_trajectory_table_rejects_nonpositive_fixed_n(dh5, fixed_n):
    with pytest.raises(ValueError, match="at least 1"):
        trajectory_table({5: dh5}, [PathClass((1, 2, 1))], fixed_n=fixed_n)


def test_support_size_values():
    assert support_size(5, 0.3) == 3
    assert support_size(7, 0.3) == 3
    assert support_size(11, 0.3) == 5
    assert support_size(31, 0.3) == 11
    assert support_size(61, 0.3) == 17
    assert support_size(101, 0.3) == 25


def test_exact_moment_closed_form(dh7):
    # E m_2 = p^2 (n-1) / (n (p^2 + p - 1))
    p, n = 7, 3
    expected = p**2 * (n - 1) / (n * (p**2 + p - 1))
    assert exact_spectral_moment(dh7, n, 2) == pytest.approx(expected, abs=1e-12)
    assert exact_spectral_moment(dh7, n, 1) == 0.0
    with pytest.raises(BudgetExceededError):
        exact_spectral_moment(dh7, n, 5)


# every built kind, and the first nb bases of a build, which are no orbit:
# (kind, p, nb), nb None for the whole dictionary
TIGHT_FRAME_CASES = (
    [("heisenberg", p, None) for p in (5, 7, 11, 13, 17, 19)]
    + [("oscillator", 5, None), ("oscillator", 7, None), ("extended", 5, None),
       ("extended-subsample", 7, None)]
    + [(kind, 7, nb) for kind in ("heisenberg", "oscillator") for nb in (2, 3, 4)]
)


@pytest.mark.parametrize("kind, p, nb", TIGHT_FRAME_CASES)
def test_exact_moments_equal_the_tight_frame_closed_forms(kind, p, nb):
    D = _extended7_subsample() if kind == "extended-subsample" else _orbit_build(kind, p)
    if nb is not None:
        D = Dictionary(D.p, D.kind, D.mu, D.labels[:nb], D.stack[:nb])
    nb = D.basis_count
    for n in sorted({2, 3, support_size(p, 0.3)}):
        assert abs(exact_spectral_moment(D, n, 2) - tight_frame_m2(p, nb, n)) <= 1e-12
        try:
            m3 = exact_spectral_moment(D, n, 3)
        except BudgetExceededError:  # the triangle class on more atoms than the budget
            assert n >= 3 and not within_budget(3, D.atom_count)
            continue
        assert abs(m3 - tight_frame_m3(p, nb, n)) <= 1e-12
        if nb == 2:  # every triangle has two atoms in one basis
            assert tight_frame_m3(p, nb, n) == 0.0


def test_exact_moment_matches_monte_carlo(dh11):
    trials = 1500
    stats = run_spectrum(dh11, epsilon=0.3, kmax=3, trials=trials, seed=11).moments
    for row in stats[1:]:  # k = 2, 3
        exact = exact_spectral_moment(dh11, 5, row.k)
        se = (row.variance / trials) ** 0.5
        assert abs(row.mean - exact) <= 3 * se + 1e-9


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_trajectory_tree_class_exact_values():
    dicts = {p: heisenberg_dict(p) for p in (5, 7, 11)}
    rows = trajectory_table(dicts, [PathClass((1, 2, 1))])
    (row,) = rows
    assert row.is_tree
    for pt in row.points:
        assert abs(pt.value.real - pt.p**2 / (pt.p**2 + pt.p - 1)) <= 1e-12
        assert abs(pt.value.imag) <= 1e-12
    values = [pt.value.real for pt in row.points]
    assert values == sorted(values)  # increasing toward 1
    assert row.converging


def test_trajectory_nontree_decays_at_fixed_n():
    dicts = {p: heisenberg_dict(p) for p in (5, 7, 11)}
    rows = trajectory_table(dicts, [PathClass((1, 2, 3, 1))], fixed_n=3)
    (row,) = rows
    assert not row.is_tree
    mags = [abs(pt.value) for pt in row.points]
    assert mags[0] > mags[1] > mags[2]
    assert row.converging


@pytest.mark.parametrize("values, converging", [
    ((1e-17, 1e-16), True),  # at rounding level: reached 0, whatever the last step did
    ((1e-3, 2e-3), False),
    ((2e-3, 1e-3), True),
])
def test_trajectory_nontree_at_rounding_level_converges(dh5, dh7, monkeypatch, values,
                                                        converging):
    weights = iter([[v / class_normalization(PathClass((1, 2, 3, 1)), 3, p)]
                    for v, p in zip(values, (5, 7))])
    monkeypatch.setattr(paths, "_expected_weights", lambda classes, D: next(weights))
    (row,) = trajectory_table({5: dh5, 7: dh7}, [PathClass((1, 2, 3, 1))], fixed_n=3)
    assert [pt.value for pt in row.points] == pytest.approx(values, rel=1e-12)
    assert row.converging is converging


# ---------------------------------------------------------------------------
# surgery and the completeness identity
# ---------------------------------------------------------------------------


def test_delete_and_replace_vertex():
    assert delete_vertex((1, 2, 3, 2, 1), 3) == (1, 2, 1)  # equal neighbours
    assert delete_vertex((1, 2, 3, 1), 3) == (1, 2, 1)  # distinct neighbours
    assert replace_vertex((1, 2, 3, 2, 1), 3, 1) == (1, 2, 1, 2, 1)
    with pytest.raises(SingleVisitError):
        delete_vertex((1, 2, 3, 2, 1), 2)


def test_delete_basepoint_rotates_first():
    # vertex 1 is crossed once (only at the ends); deletion must still work
    assert delete_vertex((1, 2, 3, 2, 1), 1) == (2, 3, 2)


def test_completeness_identity_heisenberg(dh5):
    residual = completeness_residual(PathClass((1, 2, 3, 2, 1)), 3, dh5, samples=100, seed=7)
    assert residual <= 1e-8


def test_completeness_identity_distinct_neighbours(dh5):
    residual = completeness_residual(PathClass((1, 2, 3, 1)), 3, dh5, samples=100, seed=8)
    assert residual <= 1e-8


def test_completeness_identity_single_basis(single_basis5):
    residual = completeness_residual(PathClass((1, 2, 1)), 2, single_basis5, samples=50, seed=3)
    assert residual <= 1e-10


def test_completeness_rejects_multi_visit(dh5):
    with pytest.raises(SingleVisitError):
        completeness_residual(PathClass((1, 2, 3, 2, 1)), 2, dh5)


def test_completeness_residual_draws_are_pinned(dh5):
    # pins the partial Fisher-Yates draws: other assignments round differently
    residual = completeness_residual(PathClass((1, 2, 3, 2, 1)), 3, dh5, samples=20, seed=5)
    assert residual == 2.2217974846553295e-16


def test_reduction_relation_gap_shrinks():
    # E w_gamma ~ p^{-1} E w_deleted - (p |X|)^{-1} sum_u E w_rerouted
    gaps = []
    for p in (5, 7, 11):
        D = heisenberg_dict(p)
        lhs = _expected_weights([PathClass((1, 2, 3, 2, 1))], D)[0]
        reduced = _expected_weights([delete_vertex((1, 2, 3, 2, 1), 3)], D)[0]
        rerouted = _expected_weights([replace_vertex((1, 2, 3, 2, 1), 3, 1)], D)[0]
        rhs = reduced / p - rerouted / (p * D.basis_count)
        gaps.append(abs(lhs - rhs) / abs(lhs))
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("walk", [(1, 2, 1, 3), (1, 2, 2, 1), (3,)])
def test_malformed_walk_is_refused_before_any_contraction(walk, dh5, monkeypatch):
    # an open walk, a non-strict walk and a walk too short to close
    def refuse(D, keys):
        raise AssertionError("a contraction was set up for a malformed walk")

    monkeypatch.setattr(paths, "_core_sums", refuse)
    with pytest.raises(ValueError):
        _expected_weights([walk], dh5)[0]


def test_labelled_walk_is_weighed_as_its_canonical_class(dh5, monkeypatch):
    # a labelled walk is renumbered by canonicalize alone: the expansion sees
    # only canonical class steps and the weight is the class's, bit for bit
    expand = paths._first_visit_expansion
    seen = []

    def recording(steps):
        seen.append(steps)
        return expand(steps)

    monkeypatch.setattr(paths, "_first_visit_expansion", recording)
    walks = [
        (7, 3, 7),
        (9, 4, 2, 4, 9),
        delete_vertex((1, 2, 3, 2, 1), 3),
        replace_vertex((1, 2, 3, 2, 1), 3, 1),
    ]
    for walk in walks:
        pc = canonicalize(walk)
        seen.clear()
        assert _expected_weights([walk], dh5)[0] == _expected_weights([pc], dh5)[0]
        assert seen == [pc.steps, pc.steps]


def test_exact_moment_refuses_support_outside_the_dictionary(dh5):
    # dh5 has 30 atoms: a support of n distinct atoms needs 1 <= n <= 30
    for n in (0, -1, 31):
        for k in (1, 2, 4):
            with pytest.raises(ValueError, match=rf"support size n={n} invalid for \|D\|=30"):
                exact_spectral_moment(dh5, n, k)
    assert exact_spectral_moment(dh5, 30, 1) == 0.0
    assert np.isfinite(exact_spectral_moment(dh5, 30, 4))


def test_weights_on_a_dictionary_without_atoms_are_refused():
    empty = Dictionary(5, "heisenberg", 1.0, [], np.zeros((0, 5, 5)))
    with pytest.raises(ValueError, match=r"support size n=2 invalid for \|D\|=0"):
        _expected_weights([PathClass((1, 2, 1))], empty)[0]
    with pytest.raises(ValueError, match=r"support size n=2 invalid for \|D\|=0"):
        trajectory_table({5: empty}, [PathClass((1, 2, 1))], fixed_n=1)


# ---------------------------------------------------------------------------
# trace formula and concatenation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_trace_formula_by_path_sum(n, k):
    rng = np.random.default_rng(10 * n + k)
    M = random_hermitian(rng, n)
    np.fill_diagonal(M, 0.0)
    path_sum = trace_by_path_sum(M, k)
    direct = np.trace(np.linalg.matrix_power(M, k))
    assert abs(path_sum - direct) <= 1e-8


def test_interleave_properties():
    g1 = (1, 2, 3, 1)
    g2 = (2, 4, 5, 2)
    out = interleave(g1, g2)
    assert len(out) == 7  # length 2k, closed tuple has 2k+1 entries
    assert out[0] == out[-1]
    assert all(a != b for a, b in zip(out, out[1:]))


def test_interleave_equivariant_under_relabeling():
    import itertools

    g1 = (1, 2, 3, 1)
    g2 = (2, 4, 5, 2)
    img = interleave(g1, g2)
    for perm in itertools.permutations(range(1, 6)):
        s = dict(zip(range(1, 6), perm))
        left = interleave(tuple(s[v] for v in g1), tuple(s[v] for v in g2))
        assert left == tuple(s[v] for v in img)


def test_interleave_injective_on_relabeling_orbits():
    # distinct relabelings of one pair have distinct images (this per-orbit
    # injectivity is what bounds |[pair]| by |[image]|; the map is NOT
    # globally injective: rotating the second path can reproduce an image)
    import itertools

    g1 = (1, 2, 3, 1)
    g2 = (2, 4, 1, 2)
    seen_pairs = set()
    seen_images = set()
    for perm in itertools.permutations(range(1, 6), 4):
        s = dict(zip((1, 2, 3, 4), perm))
        pair = (tuple(s[v] for v in g1), tuple(s[v] for v in g2))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        seen_images.add(interleave(*pair))
    assert len(seen_images) == len(seen_pairs) > 0


def test_interleave_weight_multiplicativity(dh5):
    # the concatenated walk's weight is the product of the two walks' weights
    M = dh5.atoms_matrix
    rng = np.random.default_rng(12)
    g1 = (1, 2, 3, 1)
    g2 = (2, 4, 5, 2)
    img = interleave(g1, g2)
    for _ in range(20):
        assign = {v: int(i) for v, i in zip(range(1, 6), rng.choice(30, size=5, replace=False))}

        def weight(walk):
            w = 1.0 + 0.0j
            for u, v in zip(walk, walk[1:]):
                w *= np.vdot(M[:, assign[v]], M[:, assign[u]])
            return w

        assert abs(weight(img) - weight(g1) * weight(g2)) <= 1e-12


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=11)
def test_catalan_recurrence(m):
    if m == 0:
        assert catalan_number(0) == 1
    else:
        assert catalan_number(m) == sum(
            catalan_number(i) * catalan_number(m - 1 - i) for i in range(m)
        )


def _philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("N", [5, 992, 10302])
def test_distinct_indices_equal_the_dense_shuffle(N):
    for key in range(1000):
        n = 1 + key % min(N, 100)
        got = paths._distinct_indices(_philox(key), N, n)
        want = dense_fisher_yates(_philox(key), N, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (key, n)


@pytest.mark.parametrize("N", [5, 992, 10302])
def test_distinct_indices_follow_one_shared_stream(N):
    # completeness_residual draws every assignment from one generator
    mine, dense = _philox(N), _philox(N)
    for call in range(300):
        n = call % min(N + 1, 60)  # n = 0 draws nothing from either
        assert np.array_equal(paths._distinct_indices(mine, N, n),
                              dense_fisher_yates(dense, N, n)), call


def test_distinct_indices_at_two_to_the_33_equal_the_dense_shuffle_draws():
    # np.arange(2**33) takes 64 GiB, so the dense shuffle cannot run here.  Its
    # loop draws j_i = rng.integers(i, N); when every j_i is at least n and no
    # two coincide, no swap touches an earlier draw and it returns j_0..j_{n-1}.
    N = 2**33

    def dense_draws(rng, n):
        draws = [int(rng.integers(i, N)) for i in range(n)]
        assert min(draws, default=n) >= n and len(set(draws)) == n
        return draws

    for key in range(1000):
        n = 1 + key % 40
        assert paths._distinct_indices(_philox(key), N, n).tolist() == \
            dense_draws(_philox(key), n), key
    mine, dense = _philox(7), _philox(7)
    for call in range(300):
        n = call % 40
        assert paths._distinct_indices(mine, N, n).tolist() == dense_draws(dense, n), call
