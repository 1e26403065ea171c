"""Brute-force reference computations kept independent of the library paths."""

import itertools

import numpy as np


def strict_closed_paths(n: int, k: int):
    """Every strict closed path of length k on {1..n}, by direct recursion."""
    out = []

    def extend(path):
        if len(path) == k:
            if path[-1] != path[0]:
                out.append(tuple(path) + (path[0],))
            return
        for v in range(1, n + 1):
            if v != path[-1]:
                extend(path + [v])

    for start in range(1, n + 1):
        extend([start])
    return out


def first_visit_form(path):
    seen = {}
    out = []
    for v in path:
        if v not in seen:
            seen[v] = len(seen) + 1
        out.append(seen[v])
    return tuple(out)


def brute_expected_weight(labels, atoms: np.ndarray) -> complex:
    """Average walk weight over injective assignments, by literal enumeration.

    ``labels`` is any labeled closed walk; ``atoms`` holds unit columns.
    The inner product convention is <x, y> = sum_t x(t) conj(y(t)).
    """
    verts = []
    for x in labels:
        if x not in verts:
            verts.append(x)
    N = atoms.shape[1]
    G = atoms.T @ atoms.conj()
    total = 0.0 + 0.0j
    count = 0
    for assign in itertools.permutations(range(N), len(verts)):
        amap = dict(zip(verts, assign))
        w = 1.0 + 0.0j
        for u, v in zip(labels, labels[1:]):
            w *= G[amap[u], amap[v]]
        total += w
        count += 1
    return total / count


def trace_by_path_sum(M: np.ndarray, k: int) -> complex:
    """Tr(M^k) for zero-diagonal M as a sum of path weights."""
    n = M.shape[0]
    total = 0.0 + 0.0j
    for path in strict_closed_paths(n, k):
        w = 1.0 + 0.0j
        for u, v in zip(path, path[1:]):
            w *= M[u - 1, v - 1]
        total += w
    return total


def random_hermitian(rng, n: int) -> np.ndarray:
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (B + B.conj().T) / 2


def random_sl2(rng, p: int):
    """Uniformish random element of SL_2(F_p) as an (a, b, c, d) tuple."""
    while True:
        a, b, c = (int(x) for x in rng.integers(0, p, size=3))
        if a != 0:
            d = (1 + b * c) * pow(a, p - 2, p) % p
            return a, b, c, d
        if b != 0:
            c = (-pow(b, p - 2, p)) % p
            d = int(rng.integers(0, p))
            return 0, b, c, d


def _sl2_mul(x, y, p: int):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def conjugation_tori(p: int):
    """Non-split tori of SL_2(F_p) by conjugating the model torus with every element.

    Elements g run over SL_2 in lexicographic (a, b, c, d) order and
    conjugates are keyed by their sorted element sets.  Returns one
    (generator, elements) pair of (a, b, c, d) tuples per torus, in order of
    first appearance; the generator is the conjugate of the model generator.
    """
    from srip.field import find_nonresidue, norm_one_generator

    delta = find_nonresidue(p)
    g0 = norm_one_generator(p, delta)
    t0 = (g0.a, g0.b * delta % p, g0.b, g0.a)
    one = (1, 0, 0, 1)
    model = [one]
    while (acc := _sl2_mul(model[-1], t0, p)) != one:
        model.append(acc)
    tori = {}
    for g in itertools.product(range(p), repeat=4):
        a, b, c, d = g
        if (a * d - b * c) % p != 1:
            continue
        ginv = (d, -b % p, -c % p, a)
        key = tuple(sorted(_sl2_mul(_sl2_mul(g, t, p), ginv, p) for t in model))
        if key not in tori:
            tori[key] = _sl2_mul(_sl2_mul(g, t0, p), ginv, p)
    return [(gen, key) for key, gen in tori.items()]


def pairwise_coherence(D, bins: int = 40):
    """Cross-basis scan one basis pair at a time, binned on explicit edges.

    Returns (pairs, max, min, histogram counts) of sqrt(p)*|<phi, psi>| over
    every atom pair from two different bases.
    """
    sqrt_p = np.sqrt(D.p)
    edges = np.linspace(0.0, max(D.mu, 1.0) + 0.5, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    pairs, worst, least = 0, 0.0, float("inf")
    for x, y in itertools.combinations(range(D.basis_count), 2):
        block = sqrt_p * np.abs(D.bases[x].atoms.conj().T @ D.bases[y].atoms)
        pairs += block.size
        worst = max(worst, float(block.max()))
        least = min(least, float(block.min()))
        counts += np.histogram(block, bins=edges)[0]
    return pairs, worst, least, [int(c) for c in counts]
