"""The three incoherent dictionaries and their verification.

A dictionary is a disjoint union of orthonormal bases of C(F_p):

* ``heisenberg``: one basis per line through the origin of the plane,
  the closed-form chirp eigenbasis of a translation-modulation operator,
  checked against that operator (p+1 bases, mu = 1), labelled
  ``line:m`` by slope m and ``line:inf`` for the vertical line;
* ``oscillator``: one basis per non-split maximal torus of SL_2(F_p),
  eigenbases of the torus generator's unitary operator (p(p-1)/2 bases,
  mu = 4); the tori come from one vectorized conjugation of the model
  torus, keyed by the projective line of the generator's traceless part,
  as two arrays of integer rows (a, b, c, d), the generators and the
  conjugators; each basis is the model torus's eigenbasis carried over
  by the Weil operator of the conjugator, labelled ``torus:a,b,c,d`` by
  its generator;
* ``extended_oscillator``: every oscillator basis translated by every
  plane element (p(p-1)p^2/2 bases, mu = 4).

Atoms are unit vectors, phase-normalized so the largest entry is real
positive, and ordered within a basis by descending eigenvalue phase of
the defining unitary, phases taken in (0, 2pi].

A dictionary holds its atoms in one read-only C-contiguous (nb, p, p)
complex array, atom-major: row j of slice b is atom j of basis b, the
layout of a SRIPDCT1 record.  Every other form is a view of it:
``atoms_matrix`` (atoms as columns) is ``stack.reshape(N, p).T``, the
atoms of basis b as columns are ``stack[b].T``, a panel of the coherence
scan is ``stack[c0:c1].reshape(-1, p)``; the loader reads each record
straight into its slice and the writer writes the slices as they are.  The
builders fill the stack, and ``Dictionary`` checks it a chunk of bases at
a time (``linalg.chunks``), a basis costing 4 p^2 entries, since a stacked
step holds about four chunk-sized temporaries at once.  A chunk of chirps
comes from one exponent table and is checked against its operators
applied as monomial maps; a chunk of oscillator bases comes from one
stacked Weil-operator product, one residual check and one ordering pass;
a chunk of extended bases from one stacked product with the translation
operators.

Cross-basis inner products are formed by one blocked kernel,
``_cross_blocks``, and judged by one rule, ``within_coherence_bound``.
The kernel multiplies every earlier row basis against a column panel of
bases, a view of the stack.  The builders of the full kinds mark their
dictionaries as orbits (``Dictionary.orbit``): the Heisenberg-Weil group
acts on each of them by unitaries that permute its atoms up to phases,
transitively on its bases.  So every pair of bases is carried, up to atom
phases and order, to a pair that contains the anchor, the first basis
``stack[0]``, and a unitary keeps |<phi, psi>|, so the anchor's pairs hold
every value that any pair holds; and a sum over all atoms of a quantity
the group keeps is nb times its sum over the anchor's atoms, which the
triangle cores of ``paths`` use, with the anchor's diagonal stabilizer
(``Dictionary.orbit``): on the heisenberg kind pi(1, 0, 0), with the
eigenvalue psi(-j) on atom j of ``line:0``; on the oscillator and full
extended kinds the Weil operator of the anchor torus's generator, whose
carried basis is checked as its eigenbasis and whose p eigenvalues are
the model torus's distinct ones, up to a phase.  On an orbit the build
check and ``coherence_report`` scan only the anchor row; on any other
dictionary ``coherence_report`` scans every cross-basis pair.  It bins
each block's moduli with ``np.histogram``.  A file carries no proof of its
symmetry, so a loaded dictionary is no orbit; ``identical_build`` gives
the build itself for a file that is byte for byte its own build.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field

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
from .field import PrimeField, is_prime
from .linalg import (
    EIGENVECTOR_RESIDUAL_TOL,
    chunks,
    eigen_residual,
    order_eigenbasis,
    phase_normalize,
    unitary_eigenbasis,
)
from .operators import heisenberg_action, heisenberg_operators, weil_operators

COHERENCE_SLACK = 1e-9
ORTHONORMALITY_TOL = 1e-9
# bins of the coherence_report histogram of sqrt(p)|<phi, psi>| over [0, max(mu, 1) + 0.5]
HISTOGRAM_BINS = 40

KIND_CODES = {"heisenberg": 0, "oscillator": 1, "extended_oscillator": 2}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
KIND_MU = {"heisenberg": 1.0, "oscillator": 4.0, "extended_oscillator": 4.0}

MAGIC = b"SRIPDCT1"
FORMAT_VERSION = 1


def _orthonormality_deviations(labels, S: np.ndarray) -> np.ndarray:
    """max|A^H A - I| of each matrix of the atom-major (n, k, p) stack ``S``,
    its atoms A = S^T as columns: the check of a basis.

    No entry of a unit vector exceeds 1 in modulus; rejecting such entries
    first keeps the Grams free of overflow.  The Grams of the whole stack
    come from one stacked product.

    Raises
    ------
    IntegrityError
        Naming the first basis of ``labels`` that has a non-finite entry
        or one above 1, or else the first whose deviation exceeds
        ``ORTHONORMALITY_TOL``.
    """
    bounded = (np.abs(S) <= 1.0 + ORTHONORMALITY_TOL).all(axis=(1, 2))  # NaN fails too
    if not bounded.all():
        raise IntegrityError(
            f"basis {labels[np.argmin(bounded)]!r}: an entry is non-finite or exceeds 1")
    G = S.conj() @ S.swapaxes(1, 2)
    diagonal = np.arange(G.shape[-1])
    G[:, diagonal, diagonal] -= 1
    dev = np.abs(G).max(axis=(1, 2))
    bad = ~(dev <= ORTHONORMALITY_TOL)
    if bad.any():
        k = np.argmax(bad)
        raise IntegrityError(f"basis {labels[k]!r}: orthonormality deviation {dev[k]:.3e}")
    return dev


@dataclass(eq=False)
class Dictionary:
    """A disjoint union of pairwise mu-coherent p x p orthonormal bases: a tight frame.

    ``stack`` holds every atom, atom-major: row j of ``stack[b]`` is atom j
    of the basis ``labels[b]``.  Construction checks it a chunk of bases at
    a time (``_orthonormality_deviations``), keeps each basis's deviation
    in ``deviations`` and makes the stack read-only; ``atoms_matrix`` is
    a view of it.  ``orbit`` marks a dictionary that a group of unitaries
    maps onto itself, permuting its atoms up to phases and acting
    transitively on its bases.  Then a unitary carries every basis pair,
    up to atom phases and order, onto a pair that contains the first
    basis, ``stack[0]``, and any atom sum of a quantity the group keeps is
    nb times its sum over that basis's atoms.  The group also holds a
    unitary that fixes that basis, acting on its atoms as a diagonal with p
    distinct eigenvalues, so a matrix in its coordinates that the unitary
    keeps is diagonal: the triangle cores of ``paths`` rest on this.  Only
    the builders of the full kinds set it, and files do not record it.
    """

    p: int
    kind: str
    mu: float
    labels: tuple[str, ...]
    stack: np.ndarray
    deviations: np.ndarray = dc_field(init=False, repr=False)
    orbit: bool = dc_field(default=False, kw_only=True)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.stack = np.ascontiguousarray(self.stack, dtype=np.complex128)
        if self.stack.shape != (len(self.labels), self.p, self.p):
            raise DimensionMismatchError(f"basis stack has shape {self.stack.shape}, "
                                         f"not {len(self.labels)} x {self.p} x {self.p}")
        self.deviations = np.empty(len(self.labels))
        for lo, hi in chunks(len(self.labels), 4 * self.p * self.p):
            self.deviations[lo:hi] = _orthonormality_deviations(self.labels[lo:hi],
                                                                self.stack[lo:hi])
        self.stack.setflags(write=False)

    def __setattr__(self, name, value):
        if name == "orbit" and name in self.__dict__:
            raise AttributeError("a dictionary's orbit marker is fixed at construction")
        super().__setattr__(name, value)

    @property
    def basis_count(self) -> int:
        return len(self.labels)

    @property
    def atom_count(self) -> int:
        return self.p * len(self.labels)

    @property
    def atoms_matrix(self) -> np.ndarray:
        """p x atom_count matrix whose columns are all atoms in basis order, a view of ``stack``."""
        return self.stack.reshape(-1, self.p).T


def _chirps(field: PrimeField, slopes: np.ndarray, labels, out: np.ndarray) -> None:
    """Write the chirp bases of the lines of the given slopes into the
    atom-major (len(slopes), p, p) stack ``out``, from one exponent table,
    and check them (``_check_chirps``).

    Atom j of the basis of slope m is the chirp
    phi_j(t) = p^{-1/2} psi(-m t^2/2 - j t), the eigenvector of the
    translation-modulation operator pi(1, m, 0) with eigenvalue psi(-j).
    Atom order j = 0, 1, ..., p-1 is therefore descending eigenvalue
    phase in (0, 2pi], and entry t = 0 is 1/sqrt(p), so every atom is
    already phase-normalized.
    """
    p = field.p
    t = np.arange(p, dtype=np.int64)
    quad = ((-field.inv2 * slopes) % p)[:, None] * ((t * t) % p)
    expo = quad[:, None, :] - np.outer(t, t)
    np.take(field.char_table, expo % p, out=out)
    out /= np.sqrt(p)
    _check_chirps(field, slopes, labels, out)


def _check_chirps(field: PrimeField, slopes: np.ndarray, labels, stack: np.ndarray) -> None:
    """Check each atom j of the atom-major chirp bases ``stack`` against
    pi(1, m, 0), with eigenvalue psi(-j), the operator applied as the monomial map
    (U f)(t) = psi(m(t+1) - m/2) f(t+1): p^2 operations a basis, not p^3.

    Raises
    ------
    DegenerateSpectrumError
        Naming the first basis of ``labels`` with an atom that misses its
        eigen-equation by more than ``EIGENVECTOR_RESIDUAL_TOL``.
    """
    elements = np.stack([np.ones_like(slopes), slopes, np.zeros_like(slopes)], axis=1)
    atoms = stack.swapaxes(1, 2)
    resid = heisenberg_action(field, elements, atoms)
    resid -= atoms * field.char_table[-np.arange(field.p) % field.p]
    _check_residuals(labels, np.abs(resid).max(axis=(1, 2)), "chirp")


def _check_residuals(labels, resid: np.ndarray, what: str) -> None:
    """Raise DegenerateSpectrumError naming the first basis of ``labels`` whose
    largest eigenvector residual in ``resid`` exceeds ``EIGENVECTOR_RESIDUAL_TOL``."""
    bad = ~(resid <= EIGENVECTOR_RESIDUAL_TOL)  # NaN fails too
    if bad.any():
        k = np.argmax(bad)
        raise DegenerateSpectrumError(
            f"basis {labels[k]!r}: {what} eigenvector residual {resid[k]:.3e} exceeds "
            f"{EIGENVECTOR_RESIDUAL_TOL:.1e}"
        )


def nonsplit_tori(field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """(generators, conjugators) of all p(p-1)/2 non-split maximal tori of
    SL_2(F_p): two (n, 4) int64 arrays of rows (a, b, c, d), one row of each
    per torus.

    The model torus {[[a, b*delta], [b, a]] : a^2 - delta*b^2 = 1} is
    conjugated by every group element g at once, in lexicographic
    (a, b, c, d) order.  A torus is the norm-one part of F_p[X] for its
    generator X, so two conjugates g t0 g^-1 span the same torus exactly
    when the traceless parts of the generators lie on one projective
    line; the line of (a - d, b, c) is the key.  The first g of each key
    is the torus's conjugator, and its generator g t0 g^-1 has exact
    order p+1.

    The subgroup count is |SL_2| / |normalizer| = p(p^2-1) / (2(p+1)):
    the normalizer contains an inverting element of determinant one, so
    it is twice the torus.
    """
    p = field.p
    a, b, c, d = _sl2_entries(field)
    x = _conjugate(a, b, c, d, _model_generator(field), p)
    # projective line of the traceless part: scale its first nonzero entry to 1
    line = np.stack([(x[0] - x[3]) % p, x[1], x[2]], axis=1)
    lead = line[np.arange(len(line)), np.argmax(line != 0, axis=1)]
    line = (line * field.inverses[lead][:, None]) % p
    _, first = np.unique((line[:, 0] * p + line[:, 1]) * p + line[:, 2], return_index=True)
    first = np.sort(first)
    expected = p * (p - 1) // 2
    if len(first) != expected:
        raise TorusCountError(f"found {len(first)} non-split tori, expected {expected}")
    return np.stack(x, axis=1)[first], np.stack([a, b, c, d], axis=1)[first]


def _model_generator(field: PrimeField) -> tuple[int, int, int, int]:
    """The generator t0 = [[a, b*delta], [b, a]] of the model torus, delta the
    smallest non-residue: the first (a, b) in lexicographic order with
    a^2 - delta*b^2 = 1 whose a + b*sqrt(delta) has exact order p+1 in
    F_p(sqrt(delta)), found in integer pair arithmetic."""
    p = field.p
    delta = int(np.argmax(field.legendre_table == -1))
    for a in range(p):
        for b in range(p):
            if (a * a - delta * b * b) % p != 1:
                continue
            x, y, order = a, b, 1
            while (x, y) != (1, 0):
                x, y = (x * a + delta * y * b) % p, (x * b + y * a) % p
                order += 1
            if order == p + 1:
                return a, delta * b % p, b, a
    raise AssertionError("the norm-one subgroup of F_p(sqrt(delta)) is cyclic")


def _sl2_entries(field: PrimeField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries a, b, c, d of every element of SL_2(F_p), in lexicographic order."""
    p = field.p
    r = np.arange(p, dtype=np.int64)
    inverse = field.inverses[1:]
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


def _oscillator_stack(field: PrimeField) -> tuple[list[str], np.ndarray]:
    """The labels and the atom-major (n, p, p) stack of the eigenbases of the
    n tori of ``nonsplit_tori``, from one eigensolve; a torus is labelled
    ``torus:a,b,c,d`` by its generator row.

    U(g) U(t0) U(g)^-1 is U(g t0 g^-1) up to a global phase, so the Weil
    operator of a torus's conjugator g carries the model torus's eigenbasis
    onto an eigenbasis of the torus generator, with the model eigenvalues
    times that phase.  A chunk of tori is carried by one stacked product,
    checked against the generators' own operators, then ordered and
    phase-normalized by ``order_eigenbasis``, as ``unitary_eigenbasis``
    orders a solved basis.

    Raises
    ------
    DegenerateSpectrumError
        Naming the first torus with an atom that misses its eigen-equation
        by more than ``EIGENVECTOR_RESIDUAL_TOL``.
    """
    p = field.p
    generators, conjugators = nonsplit_tori(field)
    labels = [f"torus:{a},{b},{c},{d}" for a, b, c, d in generators.tolist()]
    model = unitary_eigenbasis(weil_operators(field, [_model_generator(field)])[0])
    stack = np.empty((len(labels), p, p), dtype=np.complex128)
    for lo, hi in chunks(len(labels), 4 * p * p):
        carried = weil_operators(field, conjugators[lo:hi]) @ model
        lam, resid = eigen_residual(weil_operators(field, generators[lo:hi]), carried)
        _check_residuals(labels[lo:hi], resid, "carried")
        stack[lo:hi] = order_eigenbasis(carried, lam).swapaxes(1, 2)
    return labels, stack


def _cross_blocks(D: Dictionary):
    """Yield <phi, psi> = phi^H psi over the cross-basis atom pairs, block by block.

    The bases after basis 0 are cut into column panels by ``linalg.chunks``,
    a basis costing p^2 entries, each panel a view of the stack.  Every
    row basis x before the panel's last basis meets the panel's bases
    after x, so a block holds at most about ``CHUNK_ENTRIES`` inner
    products: the atoms of basis x as rows against those atoms as
    columns.  On an orbit (``D.orbit``) only basis 0 is a row basis, so
    only the anchor row's pairs are formed, panel by panel; on any other
    dictionary every pair is.  Callers of the moduli map ``np.abs`` over it.
    """
    p = D.p
    for lo, hi in chunks(D.basis_count - 1, p * p):
        panel = D.stack[lo + 1:hi + 1].reshape(-1, p)  # bases lo + 1 .. hi
        for x in range(1 if D.orbit else hi):
            yield D.stack[x].conj() @ panel[max(x - lo, 0) * p:].T


def _pair_weight(D: Dictionary) -> int:
    """How many ordered basis pairs each pair that ``_cross_blocks`` forms
    stands for: nb on an orbit, whose every basis's row holds the anchor
    row's values, and 2 on any other dictionary, whose unordered pairs are
    each formed once."""
    return D.basis_count if D.orbit else 2


def within_coherence_bound(max_abs: float, mu: float, p: int) -> bool:
    """The coherence rule: max|<phi, psi>| <= mu/sqrt(p) + COHERENCE_SLACK."""
    return bool(max_abs <= mu / np.sqrt(p) + COHERENCE_SLACK)


def _check_coherence(D: Dictionary) -> float:
    """Raise CoherenceViolationError unless every pair that ``_cross_blocks``
    forms obeys ``within_coherence_bound``; returns their max |<phi, psi>|."""
    worst = max((float(block.max()) for block in map(np.abs, _cross_blocks(D))), default=0.0)
    if not within_coherence_bound(worst, D.mu, D.p):
        raise CoherenceViolationError(
            f"{D.kind} dictionary p={D.p}: cross coherence {worst:.12f} exceeds "
            f"mu/sqrt(p) = {D.mu / np.sqrt(D.p):.12f}"
        )
    return worst


def build_heisenberg_dictionary(field: PrimeField) -> Dictionary:
    """The p+1 line bases; cross coherence is exactly 1/sqrt(p) (verified).

    The chirps of the p sloped lines are formed a chunk at a time
    (``_chirps``) and the vertical line's delta basis comes last.  The
    check scans the p pairs of the anchor, the first basis ``stack[0]``.
    A Weil operator U(g) conjugates pi(v) to pi(gv), so it carries the
    basis of a line L onto the basis of the line gL up to atom phases and
    order, and SL_2(F_p) acts 2-transitively on the p+1 lines: every pair
    of line bases is carried to a pair that contains line 0.
    """
    p = field.p
    labels = [f"line:{m}" for m in range(p)] + ["line:inf"]
    stack = np.empty((p + 1, p, p), dtype=np.complex128)
    for lo, hi in chunks(p, 4 * p * p):
        _chirps(field, np.arange(lo, hi), labels[lo:hi], stack[lo:hi])
    stack[p] = np.eye(p)
    D = Dictionary(p, "heisenberg", KIND_MU["heisenberg"], labels, stack, orbit=True)
    _check_coherence(D)
    return D


def build_oscillator_dictionary(field: PrimeField) -> Dictionary:
    """One basis per non-split torus, mu = 4 (coherence verified).

    The bases come from one eigensolve (``_oscillator_stack``).  The check
    scans the nb - 1 pairs of the anchor, the first basis ``stack[0]``:
    SL_2(F_p) acts transitively on the non-split tori by conjugation, and
    U(h) carries the basis of a torus T onto the basis of h T h^-1 up to
    atom phases and order, so every pair of torus bases is carried to a
    pair that contains the first torus.
    """
    labels, stack = _oscillator_stack(field)
    D = Dictionary(field.p, "oscillator", KIND_MU["oscillator"], labels, stack, orbit=True)
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
    The bases are torus-major.  Each chunk of them comes from one stacked
    product of the kept translations' operators with the oscillator
    bases, phase-normalized at once; v = 0 keeps B_T as it is.

    With every translation, the check scans the nb - 1 pairs of the
    anchor, the first basis ``stack[0]`` (the first torus, v = 0).
    pi(v)^-1 carries a pair (pi(v) B_T, pi(w) B_S) to (B_T, pi(w - v) B_S)
    up to phases, and a Weil operator U(h) with h T h^-1 equal to the first
    torus carries that to (B_{hTh^-1}, pi(h(w - v)) B_{hSh^-1}), since
    U(h) pi(u) U(h)^-1 = pi(hu).
    A seeded subsample is not closed under this action, so its check scans
    every pair of retained bases.
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

    tori, oscillator = _oscillator_stack(field)
    oscillator = oscillator.swapaxes(1, 2)  # atoms as columns
    # translations are sorted, so v = 0 comes first when it is kept
    zero = int(translations[0] == (0, 0))
    shifts = heisenberg_operators(field, [(tau, w, 0) for tau, w in translations[zero:]])
    labels = [torus if v == (0, 0) else f"{torus};v:{v[0]},{v[1]}"
              for torus in tori for v in translations]
    stack = np.empty((len(labels), p, p), dtype=np.complex128)
    for lo, hi in chunks(len(stack), 4 * p * p):
        which, shift = np.divmod(np.arange(lo, hi), len(translations))
        moved = shift >= zero
        chunk = stack[lo:hi].swapaxes(1, 2)
        chunk[~moved] = oscillator[which[~moved]]
        chunk[moved] = phase_normalize(shifts[shift[moved] - zero] @ oscillator[which[moved]])
    D = Dictionary(p, "extended_oscillator", KIND_MU["extended_oscillator"], labels, stack,
                   orbit=translation_subsample is None)
    _check_coherence(D)
    return D


@dataclass
class CoherenceReport:
    """Outcome of the coherence scan of one dictionary; ``scan`` says which
    pairs were formed, "anchor" (the anchor row of an orbit) or "pairwise"."""

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
    scan: str = "pairwise"


def coherence_report(D: Dictionary) -> CoherenceReport:
    """Max, min and histogram of sqrt(p)*|<phi, psi>| over every cross-basis pair.

    An orbit dictionary is scanned through its anchor row, whose max and
    min are those of every pair; any other dictionary is scanned pair by
    pair.  Each formed pair stands for ``_pair_weight(D)`` ordered pairs,
    so the pair count and every histogram count are weight/2 times the
    formed ones.  Violations are reported, not raised.  A single-basis
    dictionary has no cross pairs and is flagged as a vacuous pass.
    """
    p = D.p
    sqrt_p = np.sqrt(p)
    nb = D.basis_count
    edges = np.linspace(0.0, max(D.mu, 1.0) + 0.5, HISTOGRAM_BINS + 1)
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    raw_worst = 0.0
    least = float("inf")
    pairs = 0
    for block in map(np.abs, _cross_blocks(D)):
        raw_worst = max(raw_worst, float(block.max()))
        block *= sqrt_p
        pairs += block.size
        counts += np.histogram(block, bins=edges)[0]
        least = min(least, float(block.min()))
    weight = _pair_weight(D)
    pairs = pairs * weight // 2
    counts = counts * weight // 2
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
        max_within_basis_deviation=float(D.deviations.max(initial=0.0)),
        histogram_edges=[float(e) for e in edges],
        histogram_counts=[int(c) for c in counts],
        vacuous=vacuous,
        passed=passed,
        scan="anchor" if D.orbit else "pairwise",
    )


# ---------------------------------------------------------------------------
# persistence: little-endian binary container, bit-exact round trip
# ---------------------------------------------------------------------------


def _file_pieces(D: Dictionary):
    """The file image of ``D`` in pieces: the header, then for each record its
    label length and label, then its atoms, the basis's slice of the stack as it is."""
    p = D.p
    yield MAGIC + struct.pack("<IIBId", FORMAT_VERSION, p, KIND_CODES[D.kind], D.basis_count, D.mu)
    for label, atoms in zip(D.labels, D.stack.astype("<c16", copy=False)):
        label = label.encode("utf-8")
        yield struct.pack("<I", len(label)) + label
        yield atoms


def _read_exact(buf, count: int, size: int) -> bytes:
    """The next ``count`` bytes of ``buf``, a stream of ``size`` bytes.  A read
    past the end is refused before it starts: a file read allocates its
    whole count first, and a corrupt label length can ask for 4 GB."""
    data = buf.read(count) if buf.tell() + count <= size else b""
    if len(data) != count:
        raise FormatError("unexpected end of file")
    return data


def _read_header(buf, size: int) -> tuple[int, str, int, float]:
    """(p, kind, basis count, mu) from the header at the start of the binary
    stream ``buf`` of ``size`` bytes, once it has passed every check of the
    format, the declared basis count against ``size`` included."""
    if _read_exact(buf, len(MAGIC), size) != MAGIC:
        raise FormatError("bad magic; not a dictionary file")
    version, p, kind_code, basis_count, mu = struct.unpack("<IIBId", _read_exact(buf, 21, size))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    if kind_code not in KIND_NAMES:
        raise FormatError(f"unknown dictionary kind code {kind_code}")
    if not 5 <= p <= 100_000:
        raise FormatError(f"implausible dimension p = {p}")
    if not is_prime(p):
        raise FormatError(f"dimension p = {p} is not prime")
    kind = KIND_NAMES[kind_code]
    if mu != KIND_MU[kind]:
        raise FormatError(f"stored mu = {mu!r} does not match kind {kind} (mu = {KIND_MU[kind]})")
    if basis_count * 16 * p * p > size:
        raise FormatError("declared basis count exceeds the file size")
    return p, kind, basis_count, mu


def _read_dictionary(buf, size: int) -> Dictionary:
    """The dictionary in the binary stream ``buf`` of ``size`` bytes.

    Each record's atoms are read straight into its slice of the stack,
    then every basis is checked once, as a built dictionary's are.
    """
    p, kind, basis_count, mu = _read_header(buf, size)
    stack = np.empty((basis_count, p, p), dtype="<c16")
    labels = []
    for record in stack:
        (label_len,) = struct.unpack("<I", _read_exact(buf, 4, size))
        raw_label = _read_exact(buf, label_len, size)
        try:
            labels.append(raw_label.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"basis label is not valid UTF-8: {exc}") from exc
        if buf.tell() + record.nbytes > size or buf.readinto(record) != record.nbytes:
            raise FormatError("unexpected end of file")
    if buf.read(1):
        raise FormatError("trailing bytes after the last basis")
    return Dictionary(p, kind, mu, labels, stack)


def write_atomic(path, data: str | Iterable[bytes | np.ndarray]) -> None:
    """Write the text ``data``, or each of an iterable of bytes-like pieces in
    turn, to ``path`` through a temp file and a rename.

    Missing parent directories are created.  The temp file is removed if
    the write or the rename fails, so a failed write leaves neither a
    partial file nor the temp file behind.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def save_dictionary(path, D: Dictionary) -> None:
    """Write the file image of ``D`` a chunk of bases at a time, never whole."""
    write_atomic(path, _file_pieces(D))


def load_dictionary(path) -> Dictionary:
    with open(path, "rb") as fh:
        return _read_dictionary(fh, os.fstat(fh.fileno()).st_size)


def _orbit_basis_count(kind: str, p: int) -> int:
    """The basis count of the full dictionary of ``kind`` over F_p."""
    tori = p * (p - 1) // 2
    return {"heisenberg": p + 1, "oscillator": tori, "extended_oscillator": tori * p * p}[kind]


def _holds_file_image(buf, D: Dictionary) -> bool:
    """Whether the binary stream ``buf`` is the file image of ``D``, byte for
    byte and to its end.  It is read from the start a piece at a time, each
    record's atoms into one buffer and compared with ``D``'s as integers,
    so no second stack is held; the first difference stops the read."""
    buf.seek(0)
    record = np.empty(2 * D.p * D.p, dtype="<u8")
    for piece in _file_pieces(D):
        if isinstance(piece, bytes):
            same = buf.read(len(piece)) == piece
        else:
            same = (buf.readinto(record) == record.nbytes
                    and np.array_equal(record, piece.reshape(-1).view("<u8")))
        if not same:
            return False
    return not buf.read(1)


def identical_build(path, build) -> Dictionary | None:
    """``build(kind, p)`` if the file at ``path`` is byte for byte that build
    of the kind and p its header declares, else None.

    The header passes every check of the loader first, so nothing is built
    for a file the loader refuses outright, nor larger than the file.  Only
    a full orbit kind is built: the heisenberg and oscillator kinds, and the
    extended kind with every translation.  The build is an orbit by
    construction, so a file equal to it is one too and may be reported
    through the anchor row.
    """
    with open(path, "rb") as fh:
        p, kind, basis_count, _ = _read_header(fh, os.fstat(fh.fileno()).st_size)
        if basis_count != _orbit_basis_count(kind, p):
            return None
        D = build(kind, p)
        return D if _holds_file_image(fh, D) else None
