"""The three incoherent dictionaries and their verification.

A dictionary is a disjoint union of orthonormal bases of C(F_p):

* ``heisenberg``: one basis per line through the origin of the plane,
  the closed-form chirp eigenbasis of a translation-modulation operator,
  checked against that operator (p+1 bases, mu = 1);
* ``oscillator``: one basis per non-split maximal torus of SL_2(F_p),
  eigenbases of the torus generator's unitary operator (p(p-1)/2 bases,
  mu = 4); the tori come from one vectorized conjugation of the model
  torus, keyed by the projective line of the generator's traceless part;
* ``extended_oscillator``: every oscillator basis translated by every
  plane element (p(p-1)p^2/2 bases, mu = 4).

Atoms are unit vectors stored as matrix columns, phase-normalized so the
largest entry is real positive, and ordered within a basis by descending
eigenvalue phase of the defining unitary, phases taken in (0, 2pi].

Coherence is checked over every cross-basis atom pair by one blocked
kernel, ``_cross_blocks``, and decided by one rule,
``within_coherence_bound``; both the builders and ``coherence_report``
use the two.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import (
    CoherenceViolationError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    FormatError,
    IntegrityError,
    TorusCountError,
    VersionMismatchError,
)
from .field import PrimeField, find_nonresidue, norm_one_generator
from .linalg import EIGENVECTOR_RESIDUAL_TOL, phase_normalize, unitary_eigenbasis
from .operators import HeisenbergElement, SL2Element, heisenberg_operator, weil_operator

COHERENCE_SLACK = 1e-9
ORTHONORMALITY_TOL = 1e-9
# inner products held at once by one block of the cross-basis scan
CROSS_BLOCK_SIZE = 2**15
# bins of the coherence_report histogram of sqrt(p)|<phi, psi>| over [0, max(mu, 1) + 0.5]
HISTOGRAM_BINS = 40

KIND_CODES = {"heisenberg": 0, "oscillator": 1, "extended_oscillator": 2}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
KIND_MU = {"heisenberg": 1.0, "oscillator": 4.0, "extended_oscillator": 4.0}

MAGIC = b"SRIPDCT1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Line:
    """A line through the origin of F_p x F_p: slope m, or None for {(0, w)}."""

    slope: int | None

    @property
    def is_vertical(self) -> bool:
        return self.slope is None

    @property
    def label(self) -> str:
        return "line:inf" if self.is_vertical else f"line:{self.slope}"


def lines(p: int) -> list[Line]:
    """All p+1 lines: slopes 0..p-1 followed by the vertical line."""
    return [Line(m) for m in range(p)] + [Line(None)]


@dataclass(frozen=True)
class Torus:
    """A non-split maximal torus, given by a generator of order p+1."""

    generator: SL2Element

    @cached_property
    def elements(self) -> tuple[SL2Element, ...]:
        """The powers of the generator, in lexicographic (a, b, c, d) order."""
        g = self.generator
        powers = [SL2Element.identity(g.p)]
        while (acc := powers[-1] * g) != powers[0]:
            powers.append(acc)
        return tuple(sorted(powers, key=lambda e: (e.a, e.b, e.c, e.d)))

    @property
    def label(self) -> str:
        g = self.generator
        return f"torus:{g.a},{g.b},{g.c},{g.d}"


@dataclass(frozen=True)
class OrthonormalBasis:
    """p unit vectors as columns of ``atoms``, labelled by their origin.

    ``orthonormality_deviation`` is max|A^H A - I|, measured on construction.
    """

    label: str
    atoms: np.ndarray
    orthonormality_deviation: float = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # no entry of a unit vector exceeds 1 in modulus; rejecting such
        # entries first keeps the Gram below free of overflow
        if not (np.abs(self.atoms) <= 1.0 + ORTHONORMALITY_TOL).all():  # NaN fails too
            raise IntegrityError(f"basis {self.label!r}: an entry is non-finite or exceeds 1")
        g = self.atoms.conj().T @ self.atoms
        dev = np.abs(g - np.eye(self.atoms.shape[1])).max()
        if not dev <= ORTHONORMALITY_TOL:
            raise IntegrityError(f"basis {self.label!r}: orthonormality deviation {dev:.3e}")
        object.__setattr__(self, "orthonormality_deviation", float(dev))
        self.atoms.setflags(write=False)  # bases are shared read-only


@dataclass
class Dictionary:
    """A disjoint union of pairwise mu-coherent p x p orthonormal bases: a tight frame."""

    p: int
    kind: str
    mu: float
    bases: list[OrthonormalBasis]

    def __post_init__(self):
        for b in self.bases:
            if b.atoms.shape != (self.p, self.p):
                raise DimensionMismatchError(
                    f"basis {b.label!r} has shape {b.atoms.shape}, not {self.p} x {self.p}")

    @property
    def basis_count(self) -> int:
        return len(self.bases)

    @property
    def atom_count(self) -> int:
        return self.p * len(self.bases)

    @cached_property
    def atoms_matrix(self) -> np.ndarray:
        """p x atom_count matrix whose columns are all atoms in basis order."""
        return np.hstack([b.atoms for b in self.bases])

    def atom(self, index: int) -> np.ndarray:
        return self.atoms_matrix[:, index]


def _eigenbasis_of(U: np.ndarray, label: str) -> OrthonormalBasis:
    """The eigenbasis of U as ``unitary_eigenbasis`` orders and normalizes it."""
    return OrthonormalBasis(label, unitary_eigenbasis(U))


def heisenberg_basis(field: PrimeField, line: Line) -> OrthonormalBasis:
    """Orthonormal eigenbasis attached to a line, in closed form.

    The vertical line's operator is diagonal, so its basis is the standard
    delta basis in natural order.  For a line of slope m, atom j is the
    chirp phi_j(t) = p^{-1/2} psi(-m t^2/2 - j t), the eigenvector of the
    translation-modulation operator of (1, m, 0) with eigenvalue psi(-j).
    Column order j = 0, 1, ..., p-1 is therefore descending eigenvalue
    phase in (0, 2pi], and entry t = 0 is 1/sqrt(p), so every atom is
    already phase-normalized.  Each atom is checked against the operator.

    Raises
    ------
    DegenerateSpectrumError
        If some atom misses its eigen-equation by more than
        ``EIGENVECTOR_RESIDUAL_TOL``.
    """
    p = field.p
    if line.is_vertical:
        return OrthonormalBasis(line.label, np.eye(p, dtype=np.complex128))
    t = np.arange(p, dtype=np.int64)
    quad = ((-field.inv2 * line.slope) % p) * ((t * t) % p)
    expo = (quad[:, None] - np.outer(t, t)) % p
    atoms = field.char_table[expo] / np.sqrt(p)
    U = heisenberg_operator(field, HeisenbergElement(1, line.slope, 0, p))
    lam = field.char_table[(-t) % p]
    resid = float(np.abs(U @ atoms - atoms * lam).max())
    if not resid <= EIGENVECTOR_RESIDUAL_TOL:
        raise DegenerateSpectrumError(
            f"basis {line.label!r}: chirp eigenvector residual {resid:.3e} exceeds "
            f"{EIGENVECTOR_RESIDUAL_TOL:.1e}"
        )
    return OrthonormalBasis(line.label, atoms)


def nonsplit_tori(field: PrimeField) -> list[Torus]:
    """All p(p-1)/2 non-split maximal tori of SL_2(F_p).

    The model torus {[[a, b*delta], [b, a]] : a^2 - delta*b^2 = 1} is
    conjugated by every group element g at once, in lexicographic
    (a, b, c, d) order.  A torus is the norm-one part of F_p[X] for its
    generator X, so two conjugates g t0 g^-1 span the same torus exactly
    when the traceless parts of the generators lie on one projective
    line; the line of (a - d, b, c) is the key.  The first g of each key
    supplies the torus, whose generator g t0 g^-1 has exact order p+1.

    The subgroup count is |SL_2| / |normalizer| = p(p^2-1) / (2(p+1)):
    the normalizer contains an inverting element of determinant one, so
    it is twice the torus.
    """
    p = field.p
    delta = find_nonresidue(p)
    g0 = norm_one_generator(p, delta)
    t0 = SL2Element(g0.a, (g0.b * delta) % p, g0.b, g0.a, p)
    order = len(Torus(t0).elements)
    if order != p + 1:
        raise TorusCountError(f"model torus has {order} elements, expected {p + 1}")

    a, b, c, d = _sl2_entries(p)
    x = _conjugate(a, b, c, d, np.array([t0.a, t0.b, t0.c, t0.d]), p)
    # projective line of the traceless part: scale its first nonzero entry to 1
    line = np.stack([(x[0] - x[3]) % p, x[1], x[2]], axis=1)
    lead = line[np.arange(len(line)), np.argmax(line != 0, axis=1)]
    line = (line * _inverses(p)[lead][:, None]) % p
    _, first = np.unique((line[:, 0] * p + line[:, 1]) * p + line[:, 2], return_index=True)
    first = np.sort(first)
    expected = p * (p - 1) // 2
    if len(first) != expected:
        raise TorusCountError(f"found {len(first)} non-split tori, expected {expected}")
    return [Torus(SL2Element(*gen, p)) for gen in np.stack(x)[:, first].T.tolist()]


def _inverses(p: int) -> np.ndarray:
    """Multiplicative inverses mod p of 0..p-1, with 0 standing in for 1/0."""
    return np.array([0] + [pow(k, p - 2, p) for k in range(1, p)], dtype=np.int64)


def _sl2_entries(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries a, b, c, d of every element of SL_2(F_p), in lexicographic order."""
    r = np.arange(p, dtype=np.int64)
    inverse = _inverses(p)[1:]
    # a = 0: b != 0 and c = -1/b, with d free
    b0 = np.repeat(r[1:], p)
    c0 = (-np.repeat(inverse, p)) % p
    d0 = np.tile(r, p - 1)
    # a != 0: b and c free, d = (1 + b c) / a
    a1 = np.repeat(r[1:], p * p)
    b1 = np.tile(np.repeat(r, p), p - 1)
    c1 = np.tile(r, p * (p - 1))
    d1 = ((1 + b1 * c1) % p) * np.repeat(inverse, p * p) % p
    a = np.concatenate([np.zeros_like(b0), a1])
    return a, np.concatenate([b0, b1]), np.concatenate([c0, c1]), np.concatenate([d0, d1])


def _conjugate(a, b, c, d, t, p: int) -> tuple[np.ndarray, ...]:
    """Entries of g t g^-1 mod p for g = [[a, b], [c, d]] in SL_2; broadcasts."""
    ta, tb, tc, td = t
    # m = g t, then m g^-1 with g^-1 = [[d, -b], [-c, a]]
    ma, mb = (a * ta + b * tc) % p, (a * tb + b * td) % p
    mc, md = (c * ta + d * tc) % p, (c * tb + d * td) % p
    return (
        (ma * d - mb * c) % p,
        (mb * a - ma * b) % p,
        (mc * d - md * c) % p,
        (md * a - mc * b) % p,
    )


def oscillator_basis(field: PrimeField, torus: Torus) -> OrthonormalBasis:
    """Eigenbasis of the unitary operator of the torus generator."""
    U = weil_operator(field, torus.generator)
    return _eigenbasis_of(U, torus.label)


def _cross_blocks(D: Dictionary):
    """Yield |<phi, psi>| over every cross-basis atom pair, block by block.

    Each basis meets the bases after it in groups of about
    ``CROSS_BLOCK_SIZE / p^2`` (at least one), so a block holds about
    ``CROSS_BLOCK_SIZE`` inner products: the atoms of basis x as rows
    against the atoms of the group as columns.
    """
    nb = D.basis_count
    step = max(1, CROSS_BLOCK_SIZE // (D.p * D.p))
    for x in range(nb):
        rows = D.bases[x].atoms.conj().T
        for y in range(x + 1, nb, step):
            yield np.abs(rows @ np.hstack([b.atoms for b in D.bases[y:y + step]]))


def within_coherence_bound(max_abs: float, mu: float, p: int) -> bool:
    """The coherence rule: max|<phi, psi>| <= mu/sqrt(p) + COHERENCE_SLACK."""
    return bool(max_abs <= mu / np.sqrt(p) + COHERENCE_SLACK)


def _check_coherence(D: Dictionary) -> float:
    worst = max((float(block.max()) for block in _cross_blocks(D)), default=0.0)
    if not within_coherence_bound(worst, D.mu, D.p):
        raise CoherenceViolationError(
            f"{D.kind} dictionary p={D.p}: cross coherence {worst:.12f} exceeds "
            f"mu/sqrt(p) = {D.mu / np.sqrt(D.p):.12f}"
        )
    return worst


def build_heisenberg_dictionary(field: PrimeField) -> Dictionary:
    """The p+1 line bases; cross coherence is exactly 1/sqrt(p) (verified)."""
    bases = [heisenberg_basis(field, ln) for ln in lines(field.p)]
    D = Dictionary(field.p, "heisenberg", KIND_MU["heisenberg"], bases)
    _check_coherence(D)
    return D


def build_oscillator_dictionary(field: PrimeField) -> Dictionary:
    """One basis per non-split torus, mu = 4 (coherence verified on all pairs)."""
    bases = [oscillator_basis(field, t) for t in nonsplit_tori(field)]
    D = Dictionary(field.p, "oscillator", KIND_MU["oscillator"], bases)
    _check_coherence(D)
    return D


def build_extended_oscillator_dictionary(
    field: PrimeField,
    translation_subsample: int | None = None,
    subsample_seed: int = 0,
    allow_large: bool = False,
) -> Dictionary:
    """Oscillator bases translated by plane elements: pi(v) B_T for each (T, v).

    The full construction has p(p-1)p^2/2 bases and is gated behind
    ``allow_large`` above p = 5; ``translation_subsample`` selects a
    deterministic seeded subset of translations for desk-scale runs.
    Coherence is verified over all retained basis pairs.
    """
    p = field.p
    if translation_subsample is None and p > 5 and not allow_large:
        raise ValueError(
            f"full extended dictionary at p={p} has {p * (p - 1) * p * p // 2} bases; "
            "pass translation_subsample or allow_large=True; from the command line, "
            "`srip build --translations N` or `--allow-large`, then pass the file with `--in`"
        )
    translations = [(tau, w) for tau in range(p) for w in range(p)]
    if translation_subsample is not None:
        if not 1 <= translation_subsample <= len(translations):
            raise ValueError("translation_subsample out of range")
        rng = np.random.Generator(np.random.Philox(key=subsample_seed))
        chosen = rng.choice(len(translations), size=translation_subsample, replace=False)
        translations = [translations[i] for i in sorted(chosen)]

    shifts = [
        None if tau == w == 0 else heisenberg_operator(field, HeisenbergElement(tau, w, 0, p))
        for tau, w in translations
    ]
    bases = []
    for torus in nonsplit_tori(field):
        tb = oscillator_basis(field, torus)
        for (tau, w), shift in zip(translations, shifts):
            if shift is None:
                bases.append(tb)
            else:
                atoms = phase_normalize(shift @ tb.atoms)
                bases.append(OrthonormalBasis(f"{tb.label};v:{tau},{w}", atoms))
    D = Dictionary(p, "extended_oscillator", KIND_MU["extended_oscillator"], bases)
    _check_coherence(D)
    return D


@dataclass
class CoherenceReport:
    """Outcome of a full or sampled coherence scan of one dictionary."""

    p: int
    kind: str
    mu: float
    basis_count: int
    atom_count: int
    cross_pairs_checked: int
    max_cross_coherence: float
    max_scaled_coherence: float
    min_scaled_coherence: float
    max_within_basis_deviation: float
    histogram_edges: list[float] = dc_field(default_factory=list)
    histogram_counts: list[int] = dc_field(default_factory=list)
    vacuous: bool = False
    passed: bool = True


def coherence_report(D: Dictionary) -> CoherenceReport:
    """Scan every cross-basis pair: max and histogram of sqrt(p)*|<phi, psi>|.

    Violations are reported, not raised.  A single-basis dictionary has no
    cross pairs and is flagged as a vacuous pass.
    """
    p = D.p
    sqrt_p = np.sqrt(p)
    nb = D.basis_count
    edges = np.linspace(0.0, max(D.mu, 1.0) + 0.5, HISTOGRAM_BINS + 1)
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    raw_worst = 0.0
    least = float("inf")
    pairs = 0
    for block in _cross_blocks(D):
        raw_worst = max(raw_worst, float(block.max()))
        block *= sqrt_p
        pairs += block.size
        least = min(least, float(block.min()))
        # uniform bins over the range of ``edges`` bin exactly as the edges themselves
        counts += np.histogram(block, bins=HISTOGRAM_BINS, range=(edges[0], edges[-1]))[0]
    # rounding is monotone, so this is the largest scaled entry bit for bit
    worst = float(raw_worst * sqrt_p)
    vacuous = nb < 2
    passed = vacuous or within_coherence_bound(raw_worst, D.mu, p)
    return CoherenceReport(
        p=p,
        kind=D.kind,
        mu=D.mu,
        basis_count=nb,
        atom_count=D.atom_count,
        cross_pairs_checked=pairs,
        max_cross_coherence=float(worst / sqrt_p) if pairs else 0.0,
        max_scaled_coherence=float(worst),
        min_scaled_coherence=float(least) if pairs else 0.0,
        max_within_basis_deviation=max(
            (b.orthonormality_deviation for b in D.bases), default=0.0
        ),
        histogram_edges=[float(e) for e in edges],
        histogram_counts=[int(c) for c in counts],
        vacuous=vacuous,
        passed=passed,
    )


def synthesize(coefficients: np.ndarray, D: Dictionary) -> np.ndarray:
    """The synthesis map: sum of f(phi) * phi over all atoms."""
    f = np.asarray(coefficients, dtype=np.complex128)
    if f.shape != (D.atom_count,):
        raise DimensionMismatchError(
            f"coefficient vector has shape {f.shape}, expected ({D.atom_count},)"
        )
    return D.atoms_matrix @ f


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
    root = field.primitive_root()
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
# persistence: little-endian binary container, bit-exact round trip
# ---------------------------------------------------------------------------


def dump_dictionary(D: Dictionary) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<IIBId", FORMAT_VERSION, D.p, KIND_CODES[D.kind], D.basis_count, D.mu))
    for b in D.bases:
        label = b.label.encode("utf-8")
        buf.write(struct.pack("<I", len(label)))
        buf.write(label)
        # atom-major: atom 0's p entries, then atom 1's, ...
        buf.write(np.ascontiguousarray(b.atoms.T).astype("<c16", copy=False).tobytes())
    return buf.getvalue()


def _read_exact(buf, count: int) -> bytes:
    data = buf.read(count)
    if len(data) != count:
        raise FormatError("unexpected end of file")
    return data


def parse_dictionary(data: bytes) -> Dictionary:
    buf = io.BytesIO(data)
    if _read_exact(buf, len(MAGIC)) != MAGIC:
        raise FormatError("bad magic; not a dictionary file")
    version, p, kind_code, basis_count, mu = struct.unpack("<IIBId", _read_exact(buf, 21))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    if kind_code not in KIND_NAMES:
        raise FormatError(f"unknown dictionary kind code {kind_code}")
    if not 5 <= p <= 100_000:
        raise FormatError(f"implausible dimension p = {p}")
    kind = KIND_NAMES[kind_code]
    if mu != KIND_MU[kind]:
        raise FormatError(f"stored mu = {mu!r} does not match kind {kind} (mu = {KIND_MU[kind]})")
    if basis_count * 16 * p * p > len(data):
        raise FormatError("declared basis count exceeds the file size")
    bases = []
    for _ in range(basis_count):
        (label_len,) = struct.unpack("<I", _read_exact(buf, 4))
        raw_label = _read_exact(buf, label_len)
        try:
            label = raw_label.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"basis label is not valid UTF-8: {exc}") from exc
        raw = _read_exact(buf, 16 * p * p)
        atoms = np.frombuffer(raw, dtype="<c16").reshape(p, p).T
        bases.append(OrthonormalBasis(label, np.ascontiguousarray(atoms)))
    if buf.read(1):
        raise FormatError("trailing bytes after the last basis")
    return Dictionary(p, kind, mu, bases)


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    Missing parent directories are created.  The temp file is removed if
    the write or the rename fails, so a failed write leaves neither a
    partial file nor the temp file behind.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def save_dictionary(path, D: Dictionary) -> None:
    write_atomic(path, dump_dictionary(D))


def load_dictionary(path) -> Dictionary:
    with open(path, "rb") as fh:
        return parse_dictionary(fh.read())
