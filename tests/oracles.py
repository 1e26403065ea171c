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


def dense_fisher_yates(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """n distinct indices of range(N), uniform and ordered: a partial Fisher-Yates
    shuffle, one ``rng.integers(i, N)`` draw per position i < n."""
    idx = np.arange(N)
    for i in range(n):
        j = int(rng.integers(i, N))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n].copy()


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


def pairwise_values(D):
    """|<phi, psi>| of every atom pair from two different bases, one basis pair
    at a time, flattened in (x, y) basis-pair order."""
    return np.concatenate([
        np.abs(D.bases[x].atoms.conj().T @ D.bases[y].atoms).ravel()
        for x, y in itertools.combinations(range(D.basis_count), 2)
    ])


def eigensolved_oscillator_bases(field, tori, translations=((0, 0),)):
    """(label, atoms) of pi(v) B_T for every torus T and translation v, torus-major.

    B_T is solved on its own, as the eigenbasis of the Weil operator of T's
    generator (one eigensolve per torus); pi(v) B_T is phase-normalized
    again, and labelled as the extended dictionary labels it.
    """
    from srip.linalg import phase_normalize, unitary_eigenbasis
    from srip.operators import HeisenbergElement, heisenberg_operator, weil_operator

    out = []
    for torus in tori:
        atoms = unitary_eigenbasis(weil_operator(field, torus.generator))
        for tau, w in translations:
            if tau == w == 0:
                out.append((torus.label, atoms))
            else:
                shift = heisenberg_operator(field, HeisenbergElement(tau, w, 0, field.p))
                out.append((f"{torus.label};v:{tau},{w}", phase_normalize(shift @ atoms)))
    return out


# ---------------------------------------------------------------------------
# the dictionaries built one basis at a time, each operator formed densely
# ---------------------------------------------------------------------------


def _dense_heisenberg(field, tau: int, w: int, z: int) -> np.ndarray:
    """pi(tau, w, z) as a dense matrix: (U f)(t) = psi(z - tau*w/2 + w*(t+tau)) f(t+tau)."""
    p = field.p
    t = np.arange(p)
    M = np.zeros((p, p), dtype=np.complex128)
    M[t, (t + tau) % p] = field.char_table[(z - field.inv2 * tau * w + w * (t + tau)) % p]
    return M


def _dense_weil(field, a: int, b: int, c: int, d: int) -> np.ndarray:
    """U(g) of g = [[a, b], [c, d]] from its closed-form entries, one element at a time."""
    p = field.p
    t = np.arange(p)
    if b == 0:
        ainv = field.inv(a)
        M = np.zeros((p, p), dtype=np.complex128)
        M[t, (ainv * t) % p] = field.legendre(a) * field.char_table[(-field.inv2 * c * ainv * t * t) % p]
        return M
    binv = field.inv(b)
    tsq = (t * t) % p
    row_expo = ((-field.inv2 * d * binv) % p) * tsq
    col_expo = ((-field.inv2 * a * binv) % p) * tsq
    expo = (row_expo[:, None] + np.outer((binv * t) % p, t) + col_expo[None, :]) % p
    return field.legendre(b) * field.char_table[expo] / np.sqrt(p)


def _normalized_columns(V: np.ndarray) -> np.ndarray:
    """Each column rotated so its first near-largest entry is real positive, column by column."""
    V = np.array(V, dtype=np.complex128)
    for j in range(V.shape[1]):
        mags = np.abs(V[:, j])
        k = int(np.argmax(mags >= mags.max() * (1.0 - 1e-9)))
        m = abs(V[k, j])
        if m > 0:
            V[:, j] *= V[k, j].conjugate() / m
        V[k, j] = m
    return V


def per_basis_bases(field, kind: str, translations=((0, 0),)):
    """(label, atoms, orthonormality deviation) of every basis of a dictionary
    of ``kind``, built one basis at a time as the library once built them.

    Heisenberg chirps are checked against the dense pi(1, m, 0); each
    oscillator basis is the model eigenbasis carried by the dense Weil
    operator of its torus's conjugator, checked against its generator's,
    ordered by eigenvalue turn; extended bases are the dense pi(v) times
    an oscillator basis, phase-normalized again.
    """
    from srip.dictionaries import _model_generator, lines, nonsplit_tori
    from srip.linalg import unitary_eigenbasis

    p = field.p
    t = np.arange(p)
    out = []
    if kind == "heisenberg":
        for ln in lines(p):
            if ln.is_vertical:
                out.append((ln.label, np.eye(p, dtype=np.complex128)))
                continue
            quad = ((-field.inv2 * ln.slope) % p) * ((t * t) % p)
            atoms = field.char_table[(quad[:, None] - np.outer(t, t)) % p] / np.sqrt(p)
            U = _dense_heisenberg(field, 1, ln.slope, 0)
            assert np.abs(U @ atoms - atoms * field.char_table[(-t) % p]).max() <= 1e-8
            out.append((ln.label, atoms))
    else:
        t0 = _model_generator(p)
        model = unitary_eigenbasis(_dense_weil(field, t0.a, t0.b, t0.c, t0.d))
        for torus in nonsplit_tori(field):
            g, h = torus.conjugator, torus.generator
            carried = _dense_weil(field, g.a, g.b, g.c, g.d) @ model
            UV = _dense_weil(field, h.a, h.b, h.c, h.d) @ carried
            lam = np.einsum("ij,ij->j", carried.conj(), UV)
            assert np.abs(UV - carried * lam).max() <= 1e-8
            turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
            atoms = _normalized_columns(carried[:, np.argsort(turns, kind="stable")])
            for tau, w in (translations if kind == "extended_oscillator" else [(0, 0)]):
                if tau == w == 0:
                    out.append((torus.label, atoms))
                else:
                    moved = _normalized_columns(_dense_heisenberg(field, tau, w, 0) @ atoms)
                    out.append((f"{torus.label};v:{tau},{w}", moved))
    return [(label, atoms, float(np.abs(atoms.conj().T @ atoms - np.eye(p)).max()))
            for label, atoms in out]
