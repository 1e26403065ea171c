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
sum_a phi_a phi_a^H = (basis count) * I; each class is expanded once per
process, keyed by its first-visit form).  The cores the reduction leaves
are summed without the Gram where the structure allows: a two-block
core, sum |G_ab|^(2x), over the cross-basis scan of <phi, psi> values
on every dictionary; on an orbit dictionary the two triangle cores,
sum |G_ab G_bc G_ca|^2 and sum (G_ab G_bc G_ca)^2, from the anchor row's
inner products alone, in the same scan; any other core of three or more degree-2 blocks in p
dimensions on the degree-2 moment operator; and any other on the Gram
matrix.  This ties the Monte Carlo spectral statistics to closed
combinatorial quantities.

The rest of the combinatorics that the engine is checked against (Dyck
decoding of tree classes, vertex surgery, the completeness identity and
the interleaving of two walks) lives with the test oracles, in
``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dictionaries import Dictionary, _cross_blocks, _pair_weight
from .errors import BudgetExceededError, NotATreeError
from .linalg import gram

MAX_LENGTH = 10
MAX_VERTICES = 4
# atom budgets for the exact expectation, set when every class of three or
# more vertices contracted the N x N Gram; no core of k <= 6 forms a Gram now,
# and only the cores of k >= 7 with a block of degree 3 or more do
MAX_ATOMS_SMALL_CLASS = 2000  # |V| <= 2
MAX_ATOMS = 400  # |V| in {3, 4}
# a non-tree trajectory whose last normalized estimate (of order 1 where it
# is not zero) is at most this in modulus has reached 0 to rounding
ZERO_ESTIMATE_FLOOR = 1e-12


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
    """Whether ``_expected_weights`` evaluates a class of ``vertex_count`` vertices on
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
    factors.  One einsum contraction of the Gram matrix, whatever the walk:
    the reference for every core route of ``_core_sums``.
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


def _s2(D: Dictionary) -> np.ndarray:
    """sum_a (phi_a (x) phi_a)(phi_a (x) phi_a)^H as a p x p x p x p tensor."""
    p = D.p
    A = D.stack.reshape(-1, p)  # atoms as rows
    Y = (A[:, :, None] * A[:, None, :]).reshape(-1, p * p)
    return (Y.T @ Y.conj()).reshape(p, p, p, p)


# the two three-block cores of degree-2 blocks: T1 = sum |G_ab G_bc G_ca|^2, every
# edge of the triangle once each way, and T2 = sum (G_ab G_bc G_ca)^2, the cycle twice
_T1 = _walk_key([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], 3)
_T2 = _walk_key([(0, 1), (1, 2), (2, 0)] * 2, 3)


def _core_sums(D: Dictionary, keys) -> dict:
    """The free sum on D of every merged-walk core in ``keys``, a set of
    ``_walk_key`` forms, keyed by its form.

    The route depends on the core's shape and on ``D.orbit``.  A two-block
    core of ``power`` edges, x = power/2 each way, sums G[a, b]^x G[b, a]^x
    = |G[a, b]|^power; every power is accumulated in one pass of
    ``_cross_blocks``.  The bases meet themselves in N unit entries, and
    each scanned pair stands for w = ``_pair_weight(D)`` ordered basis
    pairs, so the sum is w * (N/w + the scanned sum).  With w = nb this is
    nb * (p + the anchor row's sum), term for term.

    On an orbit the two three-block cores of degree-2 blocks come from the
    anchor row in the same pass.  With M_a = sum_b |G[a, b]|^2 phi_b phi_b^H
    and u_a = sum_b G[a, b]^2 phi_b phi_b^T over every atom b, T1 =
    sum_{a,b,c} |G[a, b] G[b, c] G[c, a]|^2 is sum_a ||M_a||_F^2 and T2 =
    sum_{a,b,c} (G[a, b] G[b, c] G[c, a])^2 is sum_a ||u_a||_F^2, and the
    orbit's group makes each nb times its sum over the anchor atoms a.  In
    anchor coordinates, where column g_b of a scanned block g is panel atom
    b, the anchor's diagonal stabilizer Lambda (``Dictionary.orbit``, with
    distinct eigenvalues l_j, permuting the other atoms up to phases) keeps
    each M_a, so M_a is diagonal with (M_a)_jj = sum_b |g_ab|^2 |g_jb|^2;
    and u_a = conj(l_a)^2 Lambda u_a Lambda, so (u_a)_ij = 0 unless
    l_i l_j = l_a^2, one entry a row at most, and ||u_a||_F = ||u_a 1||,
    where conj(u_a 1)_j = sum_b conj(g_jb) (sum_i conj(g_ib)) g_ab^2.  The
    anchor's own basis adds 1 at j = a to both, and each block one
    two-operand ``np.einsum`` (no BLAS, so no thread dependence) to a
    p x p accumulator per core: p^2 N work.
    Every other core of three or more degree-2 blocks is
    ``_degree2_core_sum`` on one S2, N p^4 work, and every other core is
    ``_merged_walk_sum`` on one Gram.  S2 and the Gram are formed only when
    some key needs them, so no core of k <= 6 forms a Gram, and on an orbit
    none forms S2.
    """
    if not keys:
        return {}
    powers = {key: len(key[1]) for key in keys if key[0] == 2}
    scanned = dict.fromkeys(powers.values(), 0.0)
    tri = {}
    if D.orbit:
        # row a holds the diagonal of M_a (T1) and column a the conjugate of
        # u_a 1 (T2), seeded with the anchor's own basis, whose atom a alone meets a
        tri = {key: np.eye(D.p, dtype=complex) for key in keys & {_T1, _T2}}
    for g in (_cross_blocks(D) if scanned or tri else ()):
        block = np.abs(g)
        for power in scanned:
            scanned[power] += float((block**power).sum())
        if _T1 in tri:
            W = block**2
            tri[_T1] += np.einsum("ab,jb->aj", W, W)
        if _T2 in tri:
            bra = g.conj()
            tri[_T2] += np.einsum("jb,ab->ja", bra * bra.sum(axis=0), g**2)
    w = _pair_weight(D)
    sums = {key: complex(w * (D.atom_count / w + scanned[power])) for key, power in powers.items()}
    sums.update({key: complex(D.basis_count * float((acc.real**2 + acc.imag**2).sum()))
                 for key, acc in tri.items()})
    degree2 = [
        (blocks, edges) for blocks, edges in keys - sums.keys()
        if blocks >= 3 and {sum(u == b for u, _ in edges) for b in range(blocks)} == {2}
    ]
    if degree2:
        S2 = _s2(D)
        sums.update({(b, e): _degree2_core_sum(e, b, S2) for b, e in degree2})
    rest = keys - sums.keys()
    if rest:
        G = gram(D.atoms_matrix)
        sums.update({(b, e): _merged_walk_sum(e, b, G) for b, e in rest})
    return sums


@cache
def _first_visit_expansion(steps: tuple[int, ...]) -> tuple:
    """Moebius expansion of the injective walk sum of the class with canonical ``steps``.

    Moebius inversion over the vertex coincidence patterns turns the sum
    over injective assignments into free sums of merged walks.  The
    expansion is a tuple of ((s, z, key), coefficient) pairs with nonzero
    integer coefficients, one per term nb^s * N^z * (free sum of the walk
    ``key``), where ``key`` is a ``_walk_key``.  Each merged walk is
    reduced by ``_reduce_walk`` and ``key`` is its core (a core of no
    blocks is 1).  Computed once per class per process.
    """
    terms: dict = {}
    for partition in _set_partitions(list(range(1, max(steps) + 1))):
        block_of = {}
        for b, block in enumerate(partition):
            for v in block:
                block_of[v] = b
        weight = 1
        for block in partition:
            s = len(block)
            weight *= (-1) ** (s - 1) * math.factorial(s - 1)
        edges = [(block_of[u], block_of[v]) for u, v in zip(steps, steps[1:])]
        summed, isolated, core, blocks = _reduce_walk(edges, len(partition))
        term = (summed, isolated, _walk_key(core, blocks))
        terms[term] = terms.get(term, 0) + weight
    return tuple((term, c) for term, c in terms.items() if c)


def _check_support(n: int, D: Dictionary) -> None:
    """Raises ValueError unless 1 <= n <= |D|, so that D has supports of n distinct atoms."""
    if not 1 <= n <= D.atom_count:
        raise ValueError(f"support size n={n} invalid for |D|={D.atom_count}")


def _expected_weights(walks, D: Dictionary) -> list[complex]:
    """The exact average of each walk's path weight over injective atom
    assignments on one dictionary.

    Class invariance of the expectation reduces the average over size-n
    supports to an average over assignments of the path's own vertices,
    which is what makes exact evaluation feasible.  A walk that is not a
    ``PathClass`` is weighed as its class, which ``canonicalize`` gives; a
    malformed one raises ValueError, as does a class with more vertices
    than D has atoms.  Every class is checked before any is expanded.
    Expansions come from the per-process cache of ``_first_visit_expansion``,
    and one ``_core_sums`` call sums every distinct core they leave once;
    the Gram and S2 live only for that call.
    """
    classes = [w if isinstance(w, PathClass) else canonicalize(w) for w in walks]
    for pc in classes:
        _check_budget(pc.vertex_count, D.atom_count)
        _check_support(pc.vertex_count, D)
    expansions = [_first_visit_expansion(pc.steps) for pc in classes]
    sums = _core_sums(D, {key for terms in expansions for (_, _, key), _ in terms if key[0]})
    N, nb = D.atom_count, D.basis_count
    weights = []
    for pc, terms in zip(classes, expansions):
        total = 0.0 + 0.0j
        for (summed, isolated, key), coefficient in terms:
            scale = coefficient * nb**summed * N**isolated
            total += scale * sums[key] if key[0] else scale
        weights.append(total / math.perm(N, pc.vertex_count))
    return weights


def class_size(pc: PathClass, n: int) -> int:
    """Number of labeled representatives on {1..n}: the falling factorial."""
    return math.perm(n, pc.vertex_count)


def class_normalization(pc: PathClass, n: int, p: int) -> float:
    """The normalization p^{k/2} n^{|V|-1-k/2} (n-free exactly when the class is a tree)."""
    return p ** (pc.k / 2) * float(n) ** (pc.vertex_count - 1 - pc.k / 2)


def exact_spectral_moment(D: Dictionary, n: int, k: int) -> float:
    """Exact expectation of the k-th spectral moment of the normalized error.

    Sums class contributions n^{-1} (p/n)^{k/2} |class| E(weight) over all
    classes of length k.  Supported for k <= 4 (larger k has classes whose
    vertex count exceeds the exact-expectation budget).  Raises ValueError
    unless 1 <= n <= |D|.
    """
    _check_support(n, D)
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
    (everything else) over the final step of the ladder.  A non-tree class
    whose last value is within ``ZERO_ESTIMATE_FLOOR`` of 0 converges:
    there the last step compares rounding noise.

    The normalization needs a support size: by default n = floor(p^(1-eps))
    per ladder point.  Tree normalizations are n-free; for other classes
    the floor makes n jump at desk-scale primes, so ``fixed_n`` pins one n
    across the whole ladder, which isolates the pure p-dependence that the
    vanishing estimates describe.  Raises ValueError, before any class is
    expanded, unless 1 <= n <= |D| on every rung.
    """
    ps = sorted(dictionaries)
    sizes = ladder_support_sizes(ps, epsilon, fixed_n)
    classes = list(classes)
    for p, n in zip(ps, sizes):
        for pc in classes:
            _check_budget(pc.vertex_count, dictionaries[p].atom_count)
            _check_support(pc.vertex_count, dictionaries[p])
        _check_support(n, dictionaries[p])
    weights = [_expected_weights(classes, dictionaries[p]) for p in ps]
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
                last = abs(pts[-1].value)
                converging = last <= ZERO_ESTIMATE_FLOOR or last < abs(pts[-2].value)
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
    shuffle, one ``rng.integers(i, N)`` draw per position i < n.

    The draws come from one ``rng.integers(np.arange(n), N)`` call, which
    consumes the stream exactly as the n scalar draws would.  Positions the
    shuffle has moved live in a dict, so the memory is O(n), not O(N).

    This is the reference draw of a support for every N, on a shared
    stream too.  A campaign chunk (``spectra._keyed_draws``) reproduces it
    from raw Philox words where N <= 2^32, for the rows where numpy's 32-bit
    Lemire step cannot reject and no draw repeats; it calls this for the
    rest, so the stream each call consumes is part of its contract.
    """
    moved: dict[int, int] = {}  # position -> index now held there, where not itself
    out = []
    for i, j in enumerate(rng.integers(np.arange(n), N).tolist()):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(out, dtype=np.int_)


def support_size(p: int, epsilon: float) -> int:
    """floor(p^(1-epsilon)), the support size used throughout the statistics.

    Raises ValueError unless 0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return int(math.floor(p ** (1.0 - epsilon) + 1e-9))
