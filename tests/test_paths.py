import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srip import paths
from srip.dictionaries import Dictionary
from srip.errors import BudgetExceededError, NotATreeError, SingleVisitError
from srip.paths import (
    PathClass,
    canonicalize,
    class_normalization,
    class_size,
    completeness_residual,
    delete_vertex,
    dyck_to_tree,
    enumerate_path_classes,
    exact_spectral_moment,
    expected_weight,
    interleave,
    labeled_closed_paths,
    replace_vertex,
    support_size,
    tail_bound_exponent,
    trajectory_table,
    tree_to_dyck,
    within_budget,
)
from srip.spectra import catalan_number, moment_statistics

from conftest import heisenberg_dict
from oracles import brute_expected_weight, first_visit_form, random_hermitian, strict_closed_paths, trace_by_path_sum


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
    assert total == sum(1 for _ in labeled_closed_paths(n, k))


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
    value = expected_weight(PathClass((1, 2, 1)), dh5)
    assert abs(value - 5 / 29) <= 1e-12
    assert abs(value.imag) <= 1e-14


@pytest.mark.parametrize("steps", [(1, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2, 1), (1, 2, 1, 2, 1)])
def test_expected_weight_matches_bruteforce(steps, dh5):
    impl = expected_weight(PathClass(steps), dh5)
    brute = brute_expected_weight(steps, dh5.atoms_matrix)
    assert abs(impl - brute) <= 1e-12


def test_expected_weight_four_vertices_against_bruteforce(single_basis5, dh5):
    # small dictionary keeps the literal enumeration cheap
    sub = Dictionary(5, "heisenberg", 1.0, dh5.bases[:2])
    impl = expected_weight(PathClass((1, 2, 3, 4, 1)), sub)
    brute = brute_expected_weight((1, 2, 3, 4, 1), sub.atoms_matrix)
    assert abs(impl - brute) <= 1e-12


def test_expected_weight_single_basis_vanishes(single_basis5):
    for steps in [(1, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2, 1)]:
        assert abs(expected_weight(PathClass(steps), single_basis5)) <= 1e-15


def test_expected_weight_invariant_under_relabeling(dh5):
    # the expectation depends only on the isomorphism class
    reference = expected_weight(PathClass((1, 2, 3, 2, 1)), dh5)
    rng = np.random.default_rng(4)
    for _ in range(5):
        relabel = {v: int(x) for v, x in zip((1, 2, 3), rng.permutation(100)[:3])}
        walk = tuple(relabel[v] for v in (1, 2, 3, 2, 1))
        brute = brute_expected_weight(walk, dh5.atoms_matrix)
        assert abs(brute - reference) <= 1e-12


def test_expected_weight_budgets(dh5):
    with pytest.raises(BudgetExceededError):
        expected_weight(PathClass((1, 2, 3, 4, 5, 1)), dh5)  # 5 vertices
    big = heisenberg_dict(31)
    with pytest.raises(BudgetExceededError):
        expected_weight(PathClass((1, 2, 3, 1)), big)  # 992 atoms, 3 vertices
    # but two-vertex classes are allowed on the large dictionary
    value = expected_weight(PathClass((1, 2, 1)), big)
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
                expected_weight(pc, D)
            else:
                with pytest.raises(BudgetExceededError):
                    expected_weight(pc, D)
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
        assert abs(value - expected_weight(pc, dh5)) <= 1e-12
        assert abs(value - brute_expected_weight(pc.steps, dh5.atoms_matrix)) <= 1e-12


def test_trajectory_table_contracts_each_distinct_walk_once(dh5, monkeypatch):
    # 352 vertex-merge patterns over the k = 6 classes, 21 distinct merged walks
    calls = []
    contract = paths._merged_walk_sum

    def counting(edges, blocks, G):
        calls.append(blocks)
        return contract(edges, blocks, G)

    monkeypatch.setattr(paths, "_merged_walk_sum", counting)
    usable = [
        pc for pc in enumerate_path_classes(6) if within_budget(pc.vertex_count, dh5.atom_count)
    ]
    trajectory_table({5: dh5}, usable, fixed_n=3)
    assert 0 < len(calls) <= 21


def test_reduced_walk_sums_match_the_atom_space_contraction(dh5, monkeypatch):
    # every merge pattern up to k = 8: the tight-frame reduction, and the S2
    # contraction of the degree-2 cores it leaves, against the unreduced einsum
    G = dh5.atoms_matrix.T @ dh5.atoms_matrix.conj()
    in_p_dims = []
    contract = paths._degree2_core_sum

    def counting(edges, blocks, S2):
        in_p_dims.append(blocks)
        return contract(edges, blocks, S2)

    monkeypatch.setattr(paths, "_degree2_core_sum", counting)
    core_sum = paths._CoreSums(dh5)
    oracle = {}
    for edges, blocks in _merged_walks(8):
        key = paths._walk_key(edges, blocks)
        if key not in oracle:
            oracle[key] = paths._merged_walk_sum(edges, blocks, G)
        summed, isolated, core, m = paths._reduce_walk(edges, blocks)
        value = dh5.basis_count**summed * dh5.atom_count**isolated
        if m:
            value *= core_sum(paths._walk_key(core, m))
        assert abs(value - oracle[key]) <= 1e-12 * abs(oracle[key])
    assert sorted(set(in_p_dims)) == [3, 4]


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


def test_exact_moment_matches_monte_carlo(dh11):
    trials = 1500
    stats = moment_statistics(dh11, epsilon=0.3, kmax=3, trials=trials, seed=11)
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
        lhs = expected_weight(PathClass((1, 2, 3, 2, 1)), D)
        reduced = expected_weight(delete_vertex((1, 2, 3, 2, 1), 3), D)
        rerouted = expected_weight(replace_vertex((1, 2, 3, 2, 1), 3, 1), D)
        rhs = reduced / p - rerouted / (p * D.basis_count)
        gaps.append(abs(lhs - rhs) / abs(lhs))
    assert gaps[0] > gaps[1] > gaps[2]


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
