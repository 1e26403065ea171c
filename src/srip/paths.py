"""Exact combinatorics of strict closed paths and their dictionary weights.

A strict closed path of length k visits vertices with no immediate
repetition and returns to its start.  Its isomorphism class is encoded by
first-visit numbering: vertex labels are positive integers assigned in
order of first appearance, so the class of (a, b, c, a, b, a) is
(1, 2, 3, 1, 2, 1).

The weight of a path, given an injective assignment of its vertices to
dictionary atoms, is the product of consecutive inner products around the
cycle.  Expectations of these weights over uniformly random injective
assignments are computed exactly (by Moebius inversion over vertex
coincidence patterns, reduced through the tight-frame identity
sum_a phi_a phi_a^H = (basis count) * I, and evaluated as tensor
contractions of the dictionary Gram matrix or, in p dimensions, of its
degree-2 moment operator), which ties the Monte Carlo spectral statistics
to closed combinatorial quantities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dictionaries import Dictionary
from .errors import BudgetExceededError, NotATreeError, SingleVisitError

MAX_LENGTH = 10
MAX_VERTICES = 4
# atom budgets for the exact expectation: contraction work grows like
# atom_count^3 once three or more vertices are free
MAX_ATOMS_SMALL_CLASS = 2000  # |V| <= 2
MAX_ATOMS = 400  # |V| in {3, 4}


@dataclass(frozen=True)
class PathClass:
    """Isomorphism class of a strict closed path, in first-visit canonical form."""

    steps: tuple[int, ...]

    def __post_init__(self):
        s = self.steps
        if len(s) < 3:
            raise ValueError("a closed strict path has length at least 2")
        if s[0] != 1 or s[-1] != 1:
            raise ValueError("canonical form starts and ends at vertex 1")
        seen_max = 1
        for j in range(1, len(s)):
            if s[j] == s[j - 1]:
                raise ValueError(f"strictness violated at position {j}")
            if not 1 <= s[j] <= seen_max + 1:
                raise ValueError(f"first-visit numbering violated at position {j}")
            seen_max = max(seen_max, s[j])

    @property
    def k(self) -> int:
        return len(self.steps) - 1

    @property
    def vertex_count(self) -> int:
        return max(self.steps)

    @cached_property
    def edge_counts(self) -> dict[tuple[int, int], int]:
        """Directed traversal counts over the cycle."""
        counts: dict[tuple[int, int], int] = {}
        for u, v in zip(self.steps, self.steps[1:]):
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return counts

    @cached_property
    def undirected_edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.edge_counts)

    @cached_property
    def is_tree(self) -> bool:
        """Underlying graph is a tree and every edge is crossed once per direction."""
        if len(self.undirected_edges) != self.vertex_count - 1:
            return False
        for edge in self.undirected_edges:
            u, v = tuple(edge)
            if self.edge_counts.get((u, v), 0) != 1 or self.edge_counts.get((v, u), 0) != 1:
                return False
        return True

    def __str__(self) -> str:
        return "-".join(str(v) for v in self.steps)


def canonicalize(labels) -> PathClass:
    """First-visit renumbering of any labeled strict closed path."""
    mapping: dict = {}
    out = []
    for x in labels:
        if x not in mapping:
            mapping[x] = len(mapping) + 1
        out.append(mapping[x])
    return PathClass(tuple(out))


def enumerate_path_classes(k: int) -> list[PathClass]:
    """All isomorphism classes of strict closed paths of length k, in lexicographic order."""
    if not 2 <= k <= MAX_LENGTH:
        raise BudgetExceededError(f"path length k={k} outside the supported range [2, {MAX_LENGTH}]")
    out: list[PathClass] = []
    prefix = [1]

    def extend(pos: int, seen_max: int) -> None:
        if pos == k:
            if prefix[-1] != 1:
                prefix.append(1)
                out.append(PathClass(tuple(prefix)))
                prefix.pop()
            return
        for v in range(1, seen_max + 2):
            if v == prefix[-1]:
                continue
            prefix.append(v)
            extend(pos + 1, max(seen_max, v))
            prefix.pop()

    extend(1, 1)
    return out


def labeled_closed_paths(n: int, k: int):
    """Every strict closed path of length k on the label set {1..n} (generator)."""
    path = [0] * (k + 1)

    def extend(pos: int):
        if pos == k:
            if path[0] != path[k - 1]:
                path[k] = path[0]
                yield tuple(path)
            return
        for v in range(1, n + 1):
            if v == path[pos - 1]:
                continue
            path[pos] = v
            yield from extend(pos + 1)

    for start in range(1, n + 1):
        path[0] = start
        yield from extend(1)


def tree_to_dyck(pc: PathClass) -> tuple[int, ...]:
    """First-visit encoding of a tree class as a word of +1/-1 letters."""
    if not pc.is_tree:
        raise NotATreeError(f"{pc} is not a tree class")
    seen = {1}
    word = []
    for v in pc.steps[1:]:
        if v in seen:
            word.append(-1)
        else:
            seen.add(v)
            word.append(1)
    return tuple(word)


def dyck_to_tree(word) -> PathClass:
    """Inverse of the first-visit encoding.

    The word must have nonnegative prefix sums and total sum zero (the
    zero-sum condition is what makes the encoding invertible).
    """
    word = tuple(word)
    if any(d not in (1, -1) for d in word):
        raise ValueError("word letters must be +1 or -1")
    total = 0
    for d in word:
        total += d
        if total < 0:
            raise ValueError("prefix sums must stay nonnegative")
    if total != 0:
        raise ValueError("word must sum to zero")
    steps = [1]
    stack = [1]
    next_label = 2
    for d in word:
        if d == 1:
            stack.append(next_label)
            steps.append(next_label)
            next_label += 1
        else:
            stack.pop()
            steps.append(stack[-1])
    return PathClass(tuple(steps))


# ---------------------------------------------------------------------------
# exact weight expectations
# ---------------------------------------------------------------------------


def _set_partitions(items: list[int]):
    """All partitions of a small set, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def within_budget(vertex_count: int, atom_count: int) -> bool:
    """Whether ``expected_weight`` evaluates a class of ``vertex_count`` vertices on
    ``atom_count`` atoms; outside this budget it raises BudgetExceededError."""
    limit = MAX_ATOMS_SMALL_CLASS if vertex_count <= 2 else MAX_ATOMS
    return vertex_count <= MAX_VERTICES and atom_count <= limit


def _check_budget(vertex_count: int, atom_count: int) -> None:
    if not within_budget(vertex_count, atom_count):
        raise BudgetExceededError(
            f"a {vertex_count}-vertex class on {atom_count} atoms exceeds the exact-expectation "
            f"budget: at most {MAX_VERTICES} vertices, and at most {MAX_ATOMS_SMALL_CLASS} atoms "
            f"for 2 vertices or fewer, {MAX_ATOMS} otherwise"
        )


def _merged_walk_sum(edges, blocks: int, G: np.ndarray) -> complex:
    """Sum over all (unrestricted) block assignments of the walk weight.

    ``edges`` lists directed block pairs; equal pairs contribute diagonal
    factors.  Evaluated as one einsum contraction of the Gram matrix.
    """
    letters = "abcd"
    pair_factors: dict[tuple[int, int], np.ndarray] = {}
    loop_counts = [0] * blocks
    for u, v in edges:
        if u == v:
            loop_counts[u] += 1
        else:
            key = (min(u, v), max(u, v))
            mat = G if u < v else G.T
            if key in pair_factors:
                pair_factors[key] = pair_factors[key] * mat
            else:
                pair_factors[key] = mat
    operands = []
    subs = []
    for (u, v), mat in pair_factors.items():
        operands.append(mat)
        subs.append(letters[u] + letters[v])
    d = np.diag(G)
    for u in range(blocks):
        if loop_counts[u]:
            operands.append(d**loop_counts[u])
            subs.append(letters[u])
        elif not any(u in (a, b) for (a, b) in pair_factors):
            # isolated block: free index contributes a factor N
            operands.append(np.ones(G.shape[0]))
            subs.append(letters[u])
    return complex(np.einsum(",".join(subs) + "->", *operands, optimize=True))


def _walk_key(edges, blocks: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Canonical form of a merged walk: the block count and the directed edge
    list, sorted and minimised over every relabelling of the blocks.

    ``_merged_walk_sum`` depends only on this form: the walk weight is a
    product over the edge multiset and every block index is summed freely.
    Directions are kept, since u->v contributes G[u, v] and v->u contributes
    G[v, u].
    """
    return blocks, min(
        tuple(sorted((perm[u], perm[v]) for u, v in edges))
        for perm in itertools.permutations(range(blocks))
    )


def _reduce_walk(edges, blocks: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Sum out the blocks of a merged walk on a tight frame of unit atoms.

    Returns (s, z, core, m): the walk sum is nb^s * N^z times the sum of the
    core walk ``core`` on m blocks.  Loops drop, since G[a, a] = 1.  A block
    with one in-edge u->b and one out-edge b->v sums out to nb * G[u, v],
    since sum_b phi_b phi_b^H = nb * I; a block left with no edge gives N.
    Repeated until nothing changes, so every core block has in- and
    out-degree at least 2 (they are equal: a merged walk is closed).
    """
    edges = [(u, v) for u, v in edges if u != v]
    alive = list(range(blocks))
    summed = isolated = 0
    changed = True
    while changed:
        changed = False
        for b in list(alive):
            ins = [e for e in edges if e[1] == b]
            outs = [e for e in edges if e[0] == b]
            if len(ins) > 1 or len(outs) > 1:
                continue
            alive.remove(b)
            changed = True
            if not ins:
                isolated += 1
                continue
            edges.remove(ins[0])
            edges.remove(outs[0])
            u, v = ins[0][0], outs[0][1]
            if u != v:
                edges.append((u, v))
            summed += 1
    index = {b: i for i, b in enumerate(alive)}
    return summed, isolated, [(index[u], index[v]) for u, v in edges], len(alive)


def _degree2_core_sum(edges, blocks: int, S2: np.ndarray) -> complex:
    """``_merged_walk_sum`` of a walk whose blocks all have in- and out-degree 2,
    contracted in p dimensions.

    G[u, v] = phi_v^H phi_u, so summing block b over the atoms gives one copy of
    S2[i, j, k, l] = sum_a phi_a[i] phi_a[j] conj(phi_a[k] phi_a[l]): its ket
    legs i, j carry the out-edges of b and its bra legs k, l the in-edges.
    """
    kets: list[list[int]] = [[] for _ in range(blocks)]
    bras: list[list[int]] = [[] for _ in range(blocks)]
    for e, (u, v) in enumerate(edges):
        kets[u].append(e)
        bras[v].append(e)
    operands = []
    for b in range(blocks):
        operands += [S2, kets[b] + bras[b]]
    return complex(np.einsum(*operands, [], optimize=True))


class _CoreSums:
    """Memoised free sums of merged-walk cores on one dictionary.

    Keyed by ``_walk_key``.  A core of three or more
    degree-2 blocks is contracted in p dimensions while p^2 <= N; every other
    walk is ``_merged_walk_sum`` in atom space.  The Gram and S2 are formed
    on first use.
    """

    def __init__(self, D: Dictionary):
        self.D = D
        self.memo: dict = {}

    @cached_property
    def gram(self) -> np.ndarray:
        M = self.D.atoms_matrix
        return M.T @ M.conj()

    @cached_property
    def s2(self) -> np.ndarray:
        """sum_a (phi_a (x) phi_a)(phi_a (x) phi_a)^H as a p x p x p x p tensor."""
        M = self.D.atoms_matrix
        p = self.D.p
        Y = (M[:, None, :] * M[None, :, :]).reshape(p * p, -1)
        return (Y @ Y.conj().T).reshape(p, p, p, p)

    def __call__(self, key) -> complex:
        if key not in self.memo:
            blocks, edges = key
            out_degrees = {sum(u == b for u, _ in edges) for b in range(blocks)}
            in_p_dims = self.D.p**2 <= self.D.atom_count
            if blocks >= 3 and in_p_dims and out_degrees == {2}:
                self.memo[key] = _degree2_core_sum(edges, blocks, self.s2)
            else:
                self.memo[key] = _merged_walk_sum(edges, blocks, self.gram)
        return self.memo[key]


def _expansion(labels) -> tuple[int, dict]:
    """(number of vertices, Moebius expansion of the injective walk sum).

    Moebius inversion over the vertex coincidence patterns turns the sum
    over injective assignments into free sums of merged walks.  The
    expansion maps (s, z, key) to an integer coefficient, for the term
    nb^s * N^z * (free sum of the walk ``key``), where ``key`` is a
    ``_walk_key``.  Each merged walk is reduced by ``_reduce_walk`` and
    ``key`` is its core (a core of no blocks is 1).
    """
    order: dict = {}
    for x in labels:
        if x not in order:
            order[x] = len(order)
    m = len(order)
    verts = [order[x] for x in labels]
    terms: dict = {}
    for partition in _set_partitions(list(range(m))):
        block_of = {}
        for b, block in enumerate(partition):
            for v in block:
                block_of[v] = b
        weight = 1
        for block in partition:
            s = len(block)
            weight *= (-1) ** (s - 1) * math.factorial(s - 1)
        edges = [(block_of[u], block_of[v]) for u, v in zip(verts, verts[1:])]
        summed, isolated, core, blocks = _reduce_walk(edges, len(partition))
        term = (summed, isolated, _walk_key(core, blocks))
        terms[term] = terms.get(term, 0) + weight
    return m, terms


def _expected_weights(walks, D: Dictionary) -> list[complex]:
    """``expected_weight`` of every walk on one dictionary."""
    return _ladder_weights(walks, [D])[0]


def _ladder_weights(walks, dictionaries) -> list[list[complex]]:
    """``expected_weight`` of every walk on each dictionary.

    Every budget is checked first.  Each walk is expanded once per call, and
    each dictionary's ``_CoreSums`` sums every distinct core once; the Grams,
    S2s and memos live only for this call.
    """
    walks = [pc.steps if isinstance(pc, PathClass) else tuple(pc) for pc in walks]
    for D in dictionaries:
        for labels in walks:
            _check_budget(len(set(labels)), D.atom_count)
    expansions = [_expansion(labels) for labels in walks]
    out = []
    for D in dictionaries:
        core_sum = _CoreSums(D)
        N, nb = D.atom_count, D.basis_count
        weights = []
        for m, terms in expansions:
            total = 0.0 + 0.0j
            for (summed, isolated, key), coefficient in terms.items():
                if coefficient:
                    scale = coefficient * nb**summed * N**isolated
                    total += scale * core_sum(key) if key[0] else scale
            denom = 1
            for i in range(m):
                denom *= N - i
            weights.append(total / denom)
        out.append(weights)
    return out


def expected_weight(pc: PathClass | tuple, D: Dictionary) -> complex:
    """Exact average of the path weight over injective atom assignments.

    Class invariance of the expectation reduces the average over size-n
    supports to an average over assignments of the path's own vertices,
    which is what makes exact evaluation feasible.
    """
    return _expected_weights([pc], D)[0]


def class_size(pc: PathClass, n: int) -> int:
    """Number of labeled representatives on {1..n}: the falling factorial."""
    size = 1
    for i in range(pc.vertex_count):
        size *= n - i
    return max(size, 0)


def class_normalization(pc: PathClass, n: int, p: int) -> float:
    """The normalization p^{k/2} n^{|V|-1-k/2} (n-free exactly when the class is a tree)."""
    return p ** (pc.k / 2) * float(n) ** (pc.vertex_count - 1 - pc.k / 2)


def tail_bound_exponent(pc: PathClass, epsilon: float) -> float:
    """Exponent of p in the incoherence bound on the normalized expectation.

    With n = p^(1-epsilon), the product of the class normalization and the
    coherence bound mu^{k/2} p^{-k/2} scales like p to this exponent; it is
    negative exactly when k > 2(|V|-1), forcing such classes to vanish.
    """
    return (1.0 - epsilon) * (pc.vertex_count - 1 - pc.k / 2)


def exact_spectral_moment(D: Dictionary, n: int, k: int) -> float:
    """Exact expectation of the k-th spectral moment of the normalized error.

    Sums class contributions n^{-1} (p/n)^{k/2} |class| E(weight) over all
    classes of length k.  Supported for k <= 4 (larger k has classes whose
    vertex count exceeds the exact-expectation budget).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0.0
    if k > MAX_VERTICES:
        raise BudgetExceededError(f"exact moments support k <= {MAX_VERTICES}")
    p = D.p
    classes = [pc for pc in enumerate_path_classes(k) if class_size(pc, n)]
    total = 0.0 + 0.0j
    for pc, weight in zip(classes, _expected_weights(classes, D)):
        total += (p / n) ** (k / 2) / n * class_size(pc, n) * weight
    if abs(total.imag) > 1e-8:
        raise AssertionError(f"spectral moment came out non-real: {total}")
    return float(total.real)


@dataclass(frozen=True)
class TrajectoryPoint:
    p: int
    n: int
    value: complex


@dataclass(frozen=True)
class ClassTrajectory:
    path_class: PathClass
    is_tree: bool
    points: tuple[TrajectoryPoint, ...]
    converging: bool

    @property
    def final_value(self) -> complex:
        return self.points[-1].value


def trajectory_table(
    dictionaries: dict[int, Dictionary],
    classes,
    epsilon: float = 0.3,
    fixed_n: int | None = None,
) -> list[ClassTrajectory]:
    """Normalized expectations n(class) * E(weight) across a ladder of primes.

    For each class, evaluates the exact normalized expectation on every
    dictionary (keyed by p, visited in increasing order); flags whether
    the trajectory moves toward 1 (tree classes) or toward 0 in magnitude
    (everything else) over the final step of the ladder.

    The normalization needs a support size: by default n = floor(p^(1-eps))
    per ladder point.  Tree normalizations are n-free; for other classes
    the floor makes n jump at desk-scale primes, so ``fixed_n`` pins one n
    across the whole ladder, which isolates the pure p-dependence that the
    vanishing estimates describe.
    """
    ps = sorted(dictionaries)
    sizes = ladder_support_sizes(ps, epsilon, fixed_n)
    classes = list(classes)
    weights = _ladder_weights(classes, [dictionaries[p] for p in ps])
    rows = []
    for i, pc in enumerate(classes):
        pts = [
            TrajectoryPoint(p, n, class_normalization(pc, n, p) * w[i])
            for p, n, w in zip(ps, sizes, weights)
        ]
        if len(pts) >= 2:
            if pc.is_tree:
                converging = abs(pts[-1].value - 1) < abs(pts[-2].value - 1)
            else:
                converging = abs(pts[-1].value) < abs(pts[-2].value)
        else:
            converging = True
        rows.append(ClassTrajectory(pc, pc.is_tree, tuple(pts), converging))
    return rows


def ladder_support_sizes(ps, epsilon: float, fixed_n: int | None = None) -> list[int]:
    """The support size n that ``trajectory_table`` normalizes by at each prime.

    ``fixed_n`` when given, else ``support_size(p, epsilon)``.  Raises
    ValueError for a ``fixed_n`` below 1 or, without one, a bad ``epsilon``.
    """
    if fixed_n is None:
        return [support_size(p, epsilon) for p in ps]
    if fixed_n < 1:
        raise ValueError(f"the fixed support size must be at least 1, got {fixed_n}")
    return [fixed_n] * len(ps)


def _distinct_indices(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """n distinct indices of range(N), uniform and ordered: a partial Fisher-Yates
    shuffle, one ``rng.integers(i, N)`` draw per position i < n."""
    idx = np.arange(N)
    for i in range(n):
        j = int(rng.integers(i, N))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n].copy()


def support_size(p: int, epsilon: float) -> int:
    """floor(p^(1-epsilon)), the support size used throughout the statistics.

    Raises ValueError unless 0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return int(math.floor(p ** (1.0 - epsilon) + 1e-9))


# ---------------------------------------------------------------------------
# vertex surgery and the completeness identity
# ---------------------------------------------------------------------------


def _single_visit(steps: tuple[int, ...], vertex: int) -> tuple[tuple[int, ...], int]:
    """The walk and the position of a once-crossed vertex, which is not the start.

    A walk that starts at the vertex is rotated by one, so the vertex has
    a neighbour on either side.
    """
    positions = [i for i in range(len(steps) - 1) if steps[i] == vertex]
    if len(positions) != 1:
        raise SingleVisitError(
            f"vertex {vertex} is crossed {len(positions)} times in {steps}; need exactly 1"
        )
    if positions[0] == 0:
        return _rotate(steps, 1), len(steps) - 2
    return steps, positions[0]


def _rotate(steps: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Start the closed walk at position r (weights are rotation-invariant)."""
    return steps[r:-1] + steps[: r + 1]


def delete_vertex(steps: tuple[int, ...], vertex: int) -> tuple[int, ...]:
    """Surgery removing a once-crossed vertex.

    Distinct neighbours are joined by a new edge (length drops by 1);
    equal neighbours collapse the detour (length drops by 2).
    """
    steps, i0 = _single_visit(steps, vertex)
    vl, vr = steps[i0 - 1], steps[i0 + 1]
    if vl != vr:
        return steps[:i0] + steps[i0 + 1 :]
    return steps[:i0] + steps[i0 + 2 :]


def replace_vertex(steps: tuple[int, ...], vertex: int, replacement: int) -> tuple[int, ...]:
    """Surgery rerouting a once-crossed vertex through another vertex."""
    steps, i0 = _single_visit(steps, vertex)
    return steps[:i0] + (replacement,) + steps[i0 + 1 :]


def _walk_weight(steps, assign: dict, M: np.ndarray) -> complex:
    w = 1.0 + 0.0j
    for u, v in zip(steps, steps[1:]):
        a = M[:, assign[u]]
        b = M[:, assign[v]]
        w *= np.vdot(b, a)  # sum_t a(t) conj(b(t))
    return w


def completeness_residual(
    pc: PathClass, vertex: int, D: Dictionary, samples: int = 100, seed: int = 0
) -> float:
    """Max residual of the basis-completeness identity over sampled assignments.

    For a vertex crossed exactly once, summing the walk weight over every
    dictionary atom substituted at that vertex equals the basis count
    times the weight of the vertex-deleted walk; the identity is exact
    (it is Parseval applied within each orthonormal basis).
    """
    steps = pc.steps
    steps, i0 = _single_visit(steps, vertex)
    vl, vr = steps[i0 - 1], steps[i0 + 1]
    reduced = delete_vertex(steps, vertex)
    others = []
    for x in steps[:-1]:
        if x != vertex and x not in others:
            others.append(x)

    M = D.atoms_matrix
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(samples):
        assign = dict(zip(others, _distinct_indices(rng, D.atom_count, len(others)).tolist()))

        scalar = 1.0 + 0.0j
        for u, v in zip(steps, steps[1:]):
            if vertex in (u, v):
                continue
            scalar *= np.vdot(M[:, assign[v]], M[:, assign[u]])
        al = M[:, assign[vl]]
        ar = M[:, assign[vr]]
        left_factors = M.conj().T @ al  # <a_l, b> for every atom b
        right_factors = M.T @ ar.conj()  # <b, a_r> for every atom b
        lhs = scalar * np.sum(left_factors * right_factors)
        rhs = D.basis_count * _walk_weight(reduced, assign, M)
        worst = max(worst, abs(lhs - rhs))
    return worst


def interleave(path1: tuple[int, ...], path2: tuple[int, ...]) -> tuple[int, ...]:
    """Concatenation of two vertex-sharing closed walks into one of double length.

    The second walk is spliced into the first at the first shared vertex.
    The map is injective on pairs, which is what bounds the variance of
    the spectral moments.
    """
    k = len(path1) - 1
    if len(path2) - 1 != k:
        raise ValueError("both walks must have the same length")
    v2 = set(path2)
    i1 = next((i for i in range(k) if path1[i] in v2), None)
    if i1 is None:
        raise ValueError("walks share no vertex")
    i2 = next(i for i in range(k) if path2[i] == path1[i1])
    out = list(path1[: i1 + 1])
    for j in range(1, k + 1):
        out.append(path2[(i2 + j) % k])
    out.extend(path1[i1 + 1 :])
    return tuple(out)
