"""The three incoherent dictionaries and their verification.

A dictionary is a disjoint union of orthonormal bases of C(F_p):

* ``heisenberg``: one basis per line through the origin of the plane,
  eigenbases of a translation-modulation operator (p+1 bases, mu = 1);
* ``oscillator``: one basis per non-split maximal torus of SL_2(F_p),
  eigenbases of the torus generator's unitary operator (p(p-1)/2 bases,
  mu = 4);
* ``extended_oscillator``: every oscillator basis translated by every
  plane element (p(p-1)p^2/2 bases, mu = 4).

Atoms are unit vectors stored as matrix columns, phase-normalized so the
largest entry is real positive, and ordered within a basis by descending
eigenvalue phase of the defining unitary, phases taken in (0, 2pi].
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
    DimensionMismatchError,
    FormatError,
    IntegrityError,
    TorusCountError,
    VersionMismatchError,
)
from .field import PrimeField, find_nonresidue, norm_one_generator
from .linalg import phase_normalize, unitary_eigenbasis
from .operators import HeisenbergElement, SL2Element, heisenberg_operator, weil_operator

COHERENCE_SLACK = 1e-9
ORTHONORMALITY_TOL = 1e-9

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
    """A non-split maximal torus: a generator of order p+1 and its element set."""

    generator: SL2Element
    elements: tuple[SL2Element, ...]

    @property
    def label(self) -> str:
        g = self.generator
        return f"torus:{g.a},{g.b},{g.c},{g.d}"


@dataclass(frozen=True)
class OrthonormalBasis:
    """p unit vectors as columns of ``atoms``, labelled by their origin."""

    label: str
    atoms: np.ndarray

    def __post_init__(self):
        g = self.atoms.conj().T @ self.atoms
        dev = np.abs(g - np.eye(self.atoms.shape[1])).max()
        if not dev <= ORTHONORMALITY_TOL:  # NaN from non-finite atoms fails too
            raise IntegrityError(f"basis {self.label!r}: orthonormality deviation {dev:.3e}")
        self.atoms.setflags(write=False)  # bases are shared read-only


@dataclass
class Dictionary:
    """A disjoint union of pairwise mu-coherent orthonormal bases."""

    p: int
    kind: str
    mu: float
    bases: list[OrthonormalBasis]

    @property
    def basis_count(self) -> int:
        return len(self.bases)

    @property
    def atom_count(self) -> int:
        return sum(b.atoms.shape[1] for b in self.bases)

    @cached_property
    def atoms_matrix(self) -> np.ndarray:
        """p x atom_count matrix whose columns are all atoms in basis order."""
        return np.hstack([b.atoms for b in self.bases])

    @cached_property
    def basis_of_atom(self) -> np.ndarray:
        """Basis index of each atom column."""
        return np.repeat(np.arange(self.basis_count), [b.atoms.shape[1] for b in self.bases])

    def atom(self, index: int) -> np.ndarray:
        return self.atoms_matrix[:, index]


def _eigenbasis_of(U: np.ndarray, label: str) -> OrthonormalBasis:
    """Phase-normalized eigenbasis of U, columns sorted by descending eigenvalue phase.

    Phases are taken in (0, 2pi], so an eigenvalue 1 comes first.
    """
    vecs = unitary_eigenbasis(U)
    lam = np.einsum("ij,ik,kj->j", vecs.conj(), U, vecs)
    # clockwise turns from 1 in [0, 1); the rounding sends the +-1e-17 angle
    # noise of an eigenvalue 1 to 0 whatever its sign
    turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
    order = np.argsort(turns, kind="stable")
    return OrthonormalBasis(label, np.ascontiguousarray(vecs[:, order]))


def heisenberg_basis(field: PrimeField, line: Line) -> OrthonormalBasis:
    """Orthonormal eigenbasis attached to a line.

    The vertical line's operator is diagonal, so its basis is the standard
    delta basis in natural order; any other line of slope m yields the
    eigenbasis of the translation-modulation operator of (1, m, 0).
    """
    p = field.p
    if line.is_vertical:
        return OrthonormalBasis(line.label, np.eye(p, dtype=np.complex128))
    U = heisenberg_operator(field, HeisenbergElement(1, line.slope, 0, p))
    return _eigenbasis_of(U, line.label)


def nonsplit_tori(field: PrimeField) -> list[Torus]:
    """All p(p-1)/2 non-split maximal tori of SL_2(F_p).

    The model torus {[[a, b*delta], [b, a]] : a^2 - delta*b^2 = 1} is
    conjugated by every group element; conjugates are deduplicated by
    their canonically sorted element sets.  Each torus keeps a generator
    of exact order p+1 (the conjugate of the model generator).

    The subgroup count is |SL_2| / |normalizer| = p(p^2-1) / (2(p+1)):
    the normalizer contains an inverting element of determinant one, so
    it is twice the torus.
    """
    p = field.p
    delta = find_nonresidue(p)
    g0 = norm_one_generator(p, delta)
    t0 = SL2Element(g0.a, (g0.b * delta) % p, g0.b, g0.a, p)
    model = [SL2Element.identity(p)]
    acc = t0
    while acc != SL2Element.identity(p):
        model.append(acc)
        acc = acc * t0
    if len(model) != p + 1:
        raise TorusCountError(f"model torus has {len(model)} elements, expected {p + 1}")

    tori: dict[tuple, Torus] = {}
    for g in _sl2_elements(p):
        ginv = g.inverse()
        conj = [g * t * ginv for t in model]
        key = tuple(sorted((t.a, t.b, t.c, t.d) for t in conj))
        if key not in tori:
            gen = g * t0 * ginv
            tori[key] = Torus(gen, tuple(sorted(conj, key=lambda t: (t.a, t.b, t.c, t.d))))
    result = list(tori.values())
    expected = p * (p - 1) // 2
    if len(result) != expected:
        raise TorusCountError(f"found {len(result)} non-split tori, expected {expected}")
    return result


def _sl2_elements(p: int):
    """All elements of SL_2(F_p) in lexicographic (a, b, c, d) order."""
    for a in range(p):
        if a == 0:
            for b in range(1, p):
                c = (-pow(b, p - 2, p)) % p
                for d in range(p):
                    yield SL2Element(0, b, c, d, p)
        else:
            ainv = pow(a, p - 2, p)
            for b in range(p):
                for c in range(p):
                    d = ((1 + b * c) * ainv) % p
                    yield SL2Element(a, b, c, d, p)


def oscillator_basis(field: PrimeField, torus: Torus) -> OrthonormalBasis:
    """Eigenbasis of the unitary operator of the torus generator."""
    U = weil_operator(field, torus.generator)
    return _eigenbasis_of(U, torus.label)


def _cross_coherence_max(D: Dictionary) -> float:
    """Max |<phi, psi>| over all cross-basis atom pairs."""
    worst = 0.0
    nb = D.basis_count
    for x in range(nb):
        for y in range(x + 1, nb):
            block = np.abs(D.bases[x].atoms.conj().T @ D.bases[y].atoms)
            m = float(block.max())
            if m > worst:
                worst = m
    return worst


def _check_coherence(D: Dictionary) -> float:
    worst = _cross_coherence_max(D)
    bound = D.mu / np.sqrt(D.p) + COHERENCE_SLACK
    if worst > bound:
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
            "pass translation_subsample or allow_large=True"
        )
    translations = [(tau, w) for tau in range(p) for w in range(p)]
    if translation_subsample is not None:
        if not 1 <= translation_subsample <= len(translations):
            raise ValueError("translation_subsample out of range")
        rng = np.random.Generator(np.random.Philox(key=subsample_seed))
        chosen = rng.choice(len(translations), size=translation_subsample, replace=False)
        translations = [translations[i] for i in sorted(chosen)]

    bases = []
    for torus in nonsplit_tori(field):
        tb = oscillator_basis(field, torus)
        for tau, w in translations:
            if tau == 0 and w == 0:
                bases.append(tb)
                continue
            shift = heisenberg_operator(field, HeisenbergElement(tau, w, 0, p))
            atoms = shift @ tb.atoms
            for col in range(atoms.shape[1]):
                atoms[:, col] = phase_normalize(atoms[:, col])
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


def coherence_report(D: Dictionary, histogram_bins: int = 40) -> CoherenceReport:
    """Scan every cross-basis pair: max and histogram of sqrt(p)*|<phi, psi>|.

    Violations are reported, not raised.  A single-basis dictionary has no
    cross pairs and is flagged as a vacuous pass.
    """
    p = D.p
    sqrt_p = np.sqrt(p)
    nb = D.basis_count
    within_dev = 0.0
    for b in D.bases:
        g = b.atoms.conj().T @ b.atoms
        within_dev = max(within_dev, float(np.abs(g - np.eye(g.shape[0])).max()))

    edges = np.linspace(0.0, max(D.mu, 1.0) + 0.5, histogram_bins + 1)
    counts = np.zeros(histogram_bins, dtype=np.int64)
    worst = 0.0
    least = float("inf")
    pairs = 0
    for x in range(nb):
        for y in range(x + 1, nb):
            block = sqrt_p * np.abs(D.bases[x].atoms.conj().T @ D.bases[y].atoms)
            pairs += block.size
            worst = max(worst, float(block.max()))
            least = min(least, float(block.min()))
            counts += np.histogram(block, bins=edges)[0]
    vacuous = nb < 2
    passed = bool(vacuous or worst <= D.mu + COHERENCE_SLACK * float(sqrt_p))
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
        max_within_basis_deviation=within_dev,
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

    Returns (vectors, characters): p-1 columns phi(t) = chi(t)/sqrt(p-1)
    on t != 0, one for every multiplicative character chi except the
    quadratic one, together with the character value table.  This system
    has p-1 < p vectors and is deliberately not part of any dictionary;
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
