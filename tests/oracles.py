"""Brute-force reference computations kept independent of the library paths.

The sections from "the Weil generators" on hold reference code that came
from the package, where no command ran it, with its bodies unchanged:

* from ``srip.operators``: ``scaling_operator``, ``chirp_operator``,
  ``fourier_operator``, ``jacobi_operator`` and ``jacobi_multiply``, with
  ``ZeroScalingError`` from ``srip.errors``; the group elements
  ``SL2Element`` and ``HeisenbergElement``, the reference group law; and
  the ``SL2Element`` methods ``inverse``, ``apply`` and
  ``act_heisenberg`` (here functions of the element);
* from ``srip.dictionaries``: ``synthesize``, ``dump_dictionary``,
  ``parse_dictionary`` and ``diagonal_torus_system``, with the
  ``PrimeField.primitive_root`` method (here a function of the field) and
  ``_prime_factors`` from ``srip.field``;
* from ``srip.spectra``: ``rip_deviation`` (here a function of the Gram)
  and ``semicircle_density``;
* from ``srip.paths``: ``dyck_to_tree``, ``tail_bound_exponent``,
  ``delete_vertex``, ``replace_vertex``, ``completeness_residual`` and
  ``interleave``, with their helpers and ``SingleVisitError`` from
  ``srip.errors``.
"""

import io
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from srip.dictionaries import Dictionary, _file_pieces, _read_dictionary
from srip.errors import DimensionMismatchError, NotUnimodularError, SripError
from srip.field import PrimeField
from srip.operators import heisenberg_operators, weil_operators
from srip.paths import PathClass, _distinct_indices


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


def tight_frame_m2(p: int, nb: int, n: int) -> float:
    """E m_2 = p(n-1)(nb-1) / (n(N-1)) of the normalized error of n random
    atoms from nb orthonormal bases of C^p (N = p nb atoms).

    The frame is tight, so tr G^2 = p nb^2 and the mean |G_ab|^2 over
    distinct atoms is (nb-1)/(N-1).
    """
    N = p * nb
    return p * (n - 1) * (nb - 1) / (n * (N - 1))


def tight_frame_m3(p: int, nb: int, n: int) -> float:
    """E m_3 = (p/n)^(3/2) (n-1)(n-2)(nb-1)(nb-2) / ((N-1)(N-2)) for the same
    frame: the triangles over distinct atoms sum to
    tr G^3 - 3 tr G^2 + 2N = p nb (nb-1)(nb-2), so m_3 vanishes at nb = 2.
    """
    N = p * nb
    return (p / n) ** 1.5 * (n - 1) * (n - 2) * (nb - 1) * (nb - 2) / ((N - 1) * (N - 2))


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


def _legendre(a: int, p: int) -> int:
    """The quadratic character of a nonzero a, by Euler's criterion."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def model_generator(p: int):
    """The model torus generator t0 = [[a, b*delta], [b, a]] as an (a, b, c, d) tuple.

    delta is the smallest non-residue by Euler's criterion; (a, b) runs in
    lexicographic order to the first t0 of determinant a^2 - delta*b^2 = 1
    whose powers, formed in SL_2, first return to the identity at p + 1.
    """
    delta = next(x for x in range(2, p) if _legendre(x, p) == -1)
    one = (1, 0, 0, 1)
    for a, b in itertools.product(range(p), repeat=2):
        if (a * a - delta * b * b) % p != 1:
            continue
        t0 = (a, b * delta % p, b, a)
        acc, order = t0, 1
        while acc != one:
            acc = _sl2_mul(acc, t0, p)
            order += 1
        if order == p + 1:
            return t0
    raise AssertionError("the norm-one subgroup is cyclic of order p + 1")


def torus_label(generator) -> str:
    """The label ``torus:a,b,c,d`` of the torus with the generator row (a, b, c, d)."""
    return "torus:" + ",".join(str(x) for x in generator)


def conjugation_tori(p: int):
    """Non-split tori of SL_2(F_p) by conjugating the model torus with every element.

    Elements g run over SL_2 in lexicographic (a, b, c, d) order and
    conjugates are keyed by their sorted element sets.  Returns one
    (generator, elements) pair of (a, b, c, d) tuples per torus, in order of
    first appearance; the generator is the conjugate of the model generator.
    """
    t0 = model_generator(p)
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
        block = sqrt_p * np.abs(D.stack[x].conj() @ D.stack[y].T)
        pairs += block.size
        worst = max(worst, float(block.max()))
        least = min(least, float(block.min()))
        counts += np.histogram(block, bins=edges)[0]
    return pairs, worst, least, [int(c) for c in counts]


def pairwise_values(D):
    """|<phi, psi>| of every atom pair from two different bases, one basis pair
    at a time, flattened in (x, y) basis-pair order."""
    return np.concatenate([
        np.abs(D.stack[x].conj() @ D.stack[y].T).ravel()
        for x, y in itertools.combinations(range(D.basis_count), 2)
    ])


def eigensolved_oscillator_bases(field, generators, translations=((0, 0),)):
    """(label, atoms) of pi(v) B_T for every torus T, given by its generator's
    (a, b, c, d) row, and translation v, torus-major.

    B_T is solved on its own, as the eigenbasis of the Weil operator of T's
    generator (one eigensolve per torus); pi(v) B_T is phase-normalized
    again, and labelled as the extended dictionary labels it.
    """
    from srip.linalg import phase_normalize, unitary_eigenbasis

    out = []
    for generator in generators:
        label = torus_label(generator)
        atoms = unitary_eigenbasis(weil_operators(field, [generator])[0])
        for tau, w in translations:
            if tau == w == 0:
                out.append((label, atoms))
            else:
                shift = _dense_heisenberg(field, tau, w, 0)
                out.append((f"{label};v:{tau},{w}", phase_normalize(shift @ atoms)))
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
        ainv = pow(a, p - 2, p)
        M = np.zeros((p, p), dtype=np.complex128)
        M[t, (ainv * t) % p] = _legendre(a, p) * field.char_table[(-field.inv2 * c * ainv * t * t) % p]
        return M
    binv = pow(b, p - 2, p)
    tsq = (t * t) % p
    row_expo = ((-field.inv2 * d * binv) % p) * tsq
    col_expo = ((-field.inv2 * a * binv) % p) * tsq
    expo = (row_expo[:, None] + np.outer((binv * t) % p, t) + col_expo[None, :]) % p
    return _legendre(b, p) * field.char_table[expo] / np.sqrt(p)


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
    from srip.dictionaries import nonsplit_tori
    from srip.linalg import unitary_eigenbasis

    p = field.p
    t = np.arange(p)
    out = []
    if kind == "heisenberg":
        for m in range(p):
            quad = ((-field.inv2 * m) % p) * ((t * t) % p)
            atoms = field.char_table[(quad[:, None] - np.outer(t, t)) % p] / np.sqrt(p)
            U = _dense_heisenberg(field, 1, m, 0)
            assert np.abs(U @ atoms - atoms * field.char_table[(-t) % p]).max() <= 1e-8
            out.append((f"line:{m}", atoms))
        out.append(("line:inf", np.eye(p, dtype=np.complex128)))
    else:
        model = unitary_eigenbasis(_dense_weil(field, *model_generator(p)))
        generators, conjugators = nonsplit_tori(field)
        for h, g in zip(generators.tolist(), conjugators.tolist()):
            label = torus_label(h)
            carried = _dense_weil(field, *g) @ model
            UV = _dense_weil(field, *h) @ carried
            lam = np.einsum("ij,ij->j", carried.conj(), UV)
            assert np.abs(UV - carried * lam).max() <= 1e-8
            turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
            atoms = _normalized_columns(carried[:, np.argsort(turns, kind="stable")])
            for tau, w in (translations if kind == "extended_oscillator" else [(0, 0)]):
                if tau == w == 0:
                    out.append((label, atoms))
                else:
                    moved = _normalized_columns(_dense_heisenberg(field, tau, w, 0) @ atoms)
                    out.append((f"{label};v:{tau},{w}", moved))
    return [(label, atoms, float(np.abs(atoms.conj().T @ atoms - np.eye(p)).max()))
            for label, atoms in out]


# ---------------------------------------------------------------------------
# the Weil generators and the group law of SL_2 x| H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (v, z) with v = (tau, w), twisted product via the symplectic form."""

    tau: int
    w: int
    z: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "tau", self.tau % self.p)
        object.__setattr__(self, "w", self.w % self.p)
        object.__setattr__(self, "z", self.z % self.p)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if other.p != self.p:
            raise ValueError("group elements live over different primes")
        p = self.p
        inv2 = pow(2, p - 2, p)
        omega = self.tau * other.w - self.w * other.tau
        z = (self.z + other.z + inv2 * omega) % p
        return HeisenbergElement(self.tau + other.tau, self.w + other.w, z, p)

    @classmethod
    def identity(cls, p: int) -> "HeisenbergElement":
        return cls(0, 0, 0, p)


@dataclass(frozen=True)
class SL2Element:
    """Matrix [[a, b], [c, d]] over F_p with det = 1 (checked exactly)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        p = self.p
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise NotUnimodularError(
                f"det([[{self.a},{self.b}],[{self.c},{self.d}]]) != 1 mod {p}"
            )

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if other.p != self.p:
            raise ValueError("group elements live over different primes")
        p = self.p
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            p,
        )

    @classmethod
    def identity(cls, p: int) -> "SL2Element":
        return cls(1, 0, 0, 1, p)


def row(element) -> tuple[int, ...]:
    """The integer row of a group element, as the stacked operators take it:
    (a, b, c, d) of an ``SL2Element``, (tau, w, z) of a ``HeisenbergElement``."""
    return astuple(element)[:-1]


class ZeroScalingError(SripError):
    """Scaling operators require a nonzero field element."""


def scaling_operator(field: PrimeField, a: int) -> np.ndarray:
    """(S_a f)(t) = legendre(a) * f(a^{-1} t), for nonzero a."""
    p = field.p
    if a % p == 0:
        raise ZeroScalingError("scaling requires a nonzero field element")
    ainv = pow(a, p - 2, p)
    t = np.arange(p)
    M = np.zeros((p, p), dtype=np.complex128)
    M[t, (ainv * t) % p] = _legendre(a, p)
    return M


def chirp_operator(field: PrimeField, u: int) -> np.ndarray:
    """(M_u f)(t) = psi(-u t^2 / 2) f(t): diagonal quadratic phase."""
    p = field.p
    t = np.arange(p)
    expo = (-field.inv2 * u * t * t) % p
    return np.diag(field.char_table[expo])


def fourier_operator(field: PrimeField) -> np.ndarray:
    """(F f)(w) = p^{-1/2} sum_t psi(w t) f(t): the discrete Fourier matrix."""
    p = field.p
    t = np.arange(p)
    return field.char_table[np.outer(t, t) % p] / np.sqrt(p)


def jacobi_operator(field: PrimeField, g: SL2Element, h: HeisenbergElement) -> np.ndarray:
    """Operator of the pair (g, h) in the semidirect product: U(g) pi(h)."""
    return weil_operators(field, [row(g)])[0] @ heisenberg_operators(field, [row(h)])[0]


def inverse(g: SL2Element) -> SL2Element:
    return SL2Element(g.d, -g.b, -g.c, g.a, g.p)


def apply(g: SL2Element, v: tuple[int, int]) -> tuple[int, int]:
    """Tautological action on the plane: (tau, w) -> (a*tau + b*w, c*tau + d*w)."""
    tau, w = v
    return ((g.a * tau + g.b * w) % g.p, (g.c * tau + g.d * w) % g.p)


def act_heisenberg(g: SL2Element, h: HeisenbergElement) -> HeisenbergElement:
    """Automorphism of the Heisenberg group fixing the center."""
    tau, w = apply(g, (h.tau, h.w))
    return HeisenbergElement(tau, w, h.z, g.p)


def jacobi_multiply(
    j1: tuple[SL2Element, HeisenbergElement],
    j2: tuple[SL2Element, HeisenbergElement],
) -> tuple[SL2Element, HeisenbergElement]:
    """Group law of SL_2 x| H matching the operator product U(g) pi(h)."""
    g1, h1 = j1
    g2, h2 = j2
    return g1 * g2, act_heisenberg(inverse(g2), h1) * h2


# ---------------------------------------------------------------------------
# synthesis, in-memory file images and the split torus
# ---------------------------------------------------------------------------


def synthesize(coefficients: np.ndarray, D: Dictionary) -> np.ndarray:
    """The synthesis map: sum of f(phi) * phi over all atoms."""
    f = np.asarray(coefficients, dtype=np.complex128)
    if f.shape != (D.atom_count,):
        raise DimensionMismatchError(
            f"coefficient vector has shape {f.shape}, expected ({D.atom_count},)"
        )
    return D.atoms_matrix @ f


def dump_dictionary(D: Dictionary) -> bytearray:
    """The file image of ``D``, joined into one buffer of the exact file size."""
    return bytearray().join(_file_pieces(D))


def parse_dictionary(data: bytes) -> Dictionary:
    return _read_dictionary(io.BytesIO(data), len(data))


def primitive_root(field: PrimeField) -> int:
    """Smallest generator of the multiplicative group F_p^x."""
    order = field.p - 1
    prime_factors = _prime_factors(order)
    for g in range(2, field.p):
        if all(pow(g, order // q, field.p) != 1 for q in prime_factors):
            return g
    raise AssertionError("no primitive root found; p is not prime")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def diagonal_torus_system(field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form orthonormal system attached to the diagonal (split) torus.

    Returns (vectors, characters): p-2 columns phi(t) = chi(t)/sqrt(p-1)
    on t != 0, one for every multiplicative character chi except the
    quadratic one, together with the character value table.  This system
    has p-2 < p vectors, so no dictionary accepts it as a basis;
    it exists as a validation target (each column is an eigenvector of
    every scaling operator).
    """
    p = field.p
    root = primitive_root(field)
    log = np.zeros(p, dtype=np.int64)
    acc = 1
    for k in range(p - 1):
        log[acc] = k
        acc = (acc * root) % p
    omega = np.exp(2j * np.pi / (p - 1))
    quadratic_index = (p - 1) // 2
    indices = [j for j in range(p - 1) if j != quadratic_index]
    vectors = np.zeros((p, len(indices)), dtype=np.complex128)
    characters = np.zeros((p, len(indices)), dtype=np.complex128)
    for col, j in enumerate(indices):
        chi = omega ** ((j * log[1:]) % (p - 1))
        characters[1:, col] = chi
        vectors[1:, col] = chi / np.sqrt(p - 1)
    return vectors, characters


# ---------------------------------------------------------------------------
# the RIP deviation of one sample and the semicircle density
# ---------------------------------------------------------------------------


def rip_deviation(G: np.ndarray) -> float:
    """Exact sup of | ||synthesis(f)|| - ||f|| | over unit f supported on the
    atoms whose Gram matrix is G.

    Computed from the Gram spectrum, with the smallest eigenvalue clamped
    at 0 before the square root.
    """
    lam = np.linalg.eigvalsh(G)
    lam_max = float(lam[-1])
    lam_min = max(float(lam[0]), 0.0)
    return max(math.sqrt(lam_max) - 1.0, 1.0 - math.sqrt(lam_min), 0.0)


def semicircle_density(x) -> np.ndarray:
    """(1/2pi) sqrt(4 - x^2) on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) <= 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * np.pi)
    return out


# ---------------------------------------------------------------------------
# Dyck decoding, vertex surgery, the completeness identity, interleaving
# ---------------------------------------------------------------------------


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


def tail_bound_exponent(pc: PathClass, epsilon: float) -> float:
    """Exponent of p in the incoherence bound on the normalized expectation.

    With n = p^(1-epsilon), the product of the class normalization and the
    coherence bound mu^{k/2} p^{-k/2} scales like p to this exponent; it is
    negative exactly when k > 2(|V|-1), forcing such classes to vanish.
    """
    return (1.0 - epsilon) * (pc.vertex_count - 1 - pc.k / 2)


class SingleVisitError(SripError):
    """The chosen vertex is not crossed exactly once by the path."""


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
