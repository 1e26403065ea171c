import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srip.dictionaries import (
    Dictionary,
    Line,
    OrthonormalBasis,
    build_extended_oscillator_dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
    coherence_report,
    diagonal_torus_system,
    dump_dictionary,
    heisenberg_basis,
    lines,
    load_dictionary,
    nonsplit_tori,
    oscillator_basis,
    parse_dictionary,
    save_dictionary,
    synthesize,
)
from srip.errors import (
    DimensionMismatchError,
    FormatError,
    IntegrityError,
    SripError,
    VersionMismatchError,
)
from srip.field import PrimeField
from srip.linalg import unitary_eigenbasis
from srip.operators import (
    HeisenbergElement,
    SL2Element,
    heisenberg_operator,
    scaling_operator,
    weil_operator,
)

from conftest import oscillator_dict


def test_lines_count_and_distinct_slopes():
    ls = lines(5)
    assert len(ls) == 6
    assert len({ln.slope for ln in ls}) == 6
    assert ls[-1].is_vertical


def test_lines_partition_nonzero_points():
    p = 7
    covered = set()
    for ln in lines(p):
        if ln.is_vertical:
            pts = {(0, w) for w in range(1, p)}
        else:
            pts = {(t, (ln.slope * t) % p) for t in range(1, p)}
        assert len(pts) == p - 1
        assert not (covered & pts)
        covered |= pts
    assert len(covered) == p * p - 1


def test_vertical_line_basis_is_identity():
    f = PrimeField(7)
    b = heisenberg_basis(f, Line(None))
    assert np.array_equal(b.atoms, np.eye(7, dtype=complex))


def test_line_bases_have_flat_magnitude():
    f = PrimeField(7)
    for ln in lines(7):
        if ln.is_vertical:
            continue
        b = heisenberg_basis(f, ln)
        assert np.abs(np.abs(b.atoms) - 1 / np.sqrt(7)).max() <= 1e-8


@pytest.mark.parametrize("p", [11, 13])
def test_line_basis_fixed_atom_comes_first(p):
    # the eigenvalue-1 atom leads every line basis, whatever the sign of
    # the rounding noise in its eigenvalue's angle
    f = PrimeField(p)
    for ln in lines(p):
        if ln.is_vertical:
            continue
        U = heisenberg_operator(f, HeisenbergElement(1, ln.slope, 0, p))
        v = heisenberg_basis(f, ln).atoms[:, 0]
        assert np.abs(U @ v - v).max() <= 1e-9, ln.label


def test_heisenberg_dictionary_counts(dh7):
    assert dh7.basis_count == 8
    assert dh7.atom_count == 56


def test_heisenberg_cross_coherence_is_exact_equality(dh5, dh7):
    for D in (dh5, dh7):
        rep = coherence_report(D)
        assert abs(rep.max_scaled_coherence - 1.0) <= 1e-9
        assert abs(rep.min_scaled_coherence - 1.0) <= 1e-9
        assert rep.max_within_basis_deviation <= 1e-9


def test_atoms_unit_norm_and_phase_convention(dh7):
    from srip.linalg import anchor_index

    for basis in dh7.bases:
        for j in range(basis.atoms.shape[1]):
            v = basis.atoms[:, j]
            assert abs(np.linalg.norm(v) - 1) <= 1e-10
            k = anchor_index(v)
            assert v[k].imag == 0.0
            assert v[k].real > 0


def test_nonsplit_tori_structure():
    f = PrimeField(5)
    tori = nonsplit_tori(f)
    assert len(tori) == 10  # p(p-1)/2 distinct subgroups
    eye = SL2Element.identity(5)
    minus = SL2Element(4, 0, 0, 4, 5)
    keys = set()
    for torus in tori:
        assert len(torus.elements) == 6
        assert eye in torus.elements
        assert minus in torus.elements
        # pairwise commuting
        for s in torus.elements:
            for t in torus.elements:
                assert s * t == t * s
        # generator has exact order p+1
        acc = torus.generator
        order = 1
        while acc != eye:
            acc = acc * torus.generator
            order += 1
        assert order == 6
        keys.add(tuple((t.a, t.b, t.c, t.d) for t in torus.elements))
    assert len(keys) == 10


def test_oscillator_basis_eigenvector_residuals():
    f = PrimeField(7)
    torus = nonsplit_tori(f)[0]
    b = oscillator_basis(f, torus)
    U = weil_operator(f, torus.generator)
    assert b.atoms.shape == (7, 7)
    lam = np.einsum("ij,ik,kj->j", b.atoms.conj(), U, b.atoms)
    assert np.abs(U @ b.atoms - b.atoms * lam).max() <= 1e-8


def test_oscillator_basis_independent_of_generator():
    # p = 7: gcd(3, p+1) = 1, so t0^3 generates the same torus
    f = PrimeField(7)
    torus = nonsplit_tori(f)[2]
    b1 = oscillator_basis(f, torus).atoms
    cubed = torus.generator * torus.generator * torus.generator
    b2 = unitary_eigenbasis(weil_operator(f, cubed))
    overlap = np.abs(b1.conj().T @ b2)
    # every atom of one basis matches exactly one of the other up to phase
    assert np.allclose(np.sort(overlap.max(axis=0)), 1.0, atol=1e-7)
    assert np.allclose(np.sort(overlap.max(axis=1)), 1.0, atol=1e-7)


@pytest.mark.parametrize("p", [7, 13])
def test_oscillator_atoms_ordered_eigenvectors_of_torus_generator(p):
    f = PrimeField(p)
    for torus, basis in zip(nonsplit_tori(f), oscillator_dict(p).bases):
        U = weil_operator(f, torus.generator)
        A = basis.atoms
        lam = np.einsum("ij,ij->j", A.conj(), U @ A)
        assert np.abs(U @ A - A * lam).max() <= 1e-8, basis.label
        turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
        assert (turns >= 0).all() and (turns < 1).all()
        assert (np.diff(turns) > 0).all(), basis.label


def test_oscillator_dictionary_counts_and_coherence():
    D5 = oscillator_dict(5)
    assert D5.basis_count == 10
    assert D5.atom_count == 50
    D7 = oscillator_dict(7)
    assert D7.basis_count == 21
    assert D7.atom_count == 147
    for D in (D5, D7):
        rep = coherence_report(D)
        assert rep.max_scaled_coherence <= 4.0
        assert rep.max_within_basis_deviation <= 1e-8


@pytest.mark.slow
def test_oscillator_coherence_bound_bites_at_p17():
    # sqrt(17) > 4: the mu = 4 bound is non-vacuous here
    D = build_oscillator_dictionary(PrimeField(17))
    assert D.basis_count == 17 * 16 // 2
    rep = coherence_report(D)
    assert rep.max_scaled_coherence <= 4.0
    assert rep.max_scaled_coherence > 1.5  # far from the Heisenberg regime


def test_extended_oscillator_full_p5():
    D = build_extended_oscillator_dictionary(PrimeField(5))
    assert D.basis_count == 250  # p(p-1)/2 tori x p^2 translations
    assert D.atom_count == 1250
    rep = coherence_report(D)
    assert rep.max_scaled_coherence <= 4.0


def test_extended_oscillator_zero_translation_matches_oscillator():
    D = build_extended_oscillator_dictionary(PrimeField(5))
    DO = oscillator_dict(5)
    zero_bases = [b for b in D.bases if b.label.endswith(";v:0,0") or ";" not in b.label]
    assert len(zero_bases) == DO.basis_count
    for zb, ob in zip(zero_bases, DO.bases):
        assert np.array_equal(zb.atoms, ob.atoms)


def test_extended_oscillator_needs_opt_in_above_p5():
    with pytest.raises(ValueError):
        build_extended_oscillator_dictionary(PrimeField(7))


def test_extended_oscillator_subsample_p7():
    D = build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=6, subsample_seed=1)
    assert D.basis_count == 21 * 6
    rep = coherence_report(D)
    assert rep.cross_pairs_checked >= 10_000
    assert rep.max_scaled_coherence <= 4.0


def test_extended_oscillator_builds_each_translation_once(monkeypatch):
    import srip.dictionaries as dictionaries

    calls = []

    def counting(field, element):
        calls.append((element.tau, element.w))
        return heisenberg_operator(field, element)

    monkeypatch.setattr(dictionaries, "heisenberg_operator", counting)
    D = build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=8)
    assert D.basis_count == 21 * 8
    assert len(calls) <= 8
    assert len(set(calls)) == len(calls)


def test_coherence_report_single_basis_vacuous(single_basis5):
    rep = coherence_report(single_basis5)
    assert rep.vacuous
    assert rep.passed
    assert rep.cross_pairs_checked == 0


def test_coherence_report_histogram_totals(dh5):
    rep = coherence_report(dh5)
    # 15 basis pairs x 25 atom pairs
    assert rep.cross_pairs_checked == 15 * 25
    assert sum(rep.histogram_counts) == rep.cross_pairs_checked


def test_synthesize_indicator_and_zero(dh5):
    N = dh5.atom_count
    f = np.zeros(N, dtype=complex)
    f[17] = 1.0
    assert np.array_equal(synthesize(f, dh5), dh5.atom(17))
    assert np.abs(synthesize(np.zeros(N, dtype=complex), dh5)).max() == 0.0
    with pytest.raises(DimensionMismatchError):
        synthesize(np.zeros(N - 1, dtype=complex), dh5)


def test_synthesize_gram_identity(dh5):
    rng = np.random.default_rng(9)
    N = dh5.atom_count
    M = dh5.atoms_matrix
    for _ in range(10):
        support = rng.choice(N, size=5, replace=False)
        f = np.zeros(N, dtype=complex)
        f[support] = rng.normal(size=5) + 1j * rng.normal(size=5)
        lhs = np.linalg.norm(synthesize(f, dh5)) ** 2
        A = M[:, support]
        G = A.T @ A.conj()
        fs = f[support]
        rhs = (fs @ G @ fs.conj()).real
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_diagonal_torus_system_eigenvectors():
    f = PrimeField(11)
    vectors, _ = diagonal_torus_system(f)
    assert vectors.shape == (11, 9)  # p-1 characters minus the quadratic one
    G = vectors.conj().T @ vectors
    assert np.abs(G - np.eye(9)).max() <= 1e-10
    for a in range(1, 11):
        S = scaling_operator(f, a)
        for j in range(vectors.shape[1]):
            v = vectors[:, j]
            lam = np.vdot(v, S @ v)
            assert np.linalg.norm(S @ v - lam * v) <= 1e-10


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_round_trip_is_byte_identical(tmp_path, dh7):
    f1 = tmp_path / "a.srip"
    f2 = tmp_path / "b.srip"
    save_dictionary(f1, dh7)
    D2 = load_dictionary(f1)
    save_dictionary(f2, D2)
    assert f1.read_bytes() == f2.read_bytes()
    assert D2.atom_count == 56
    assert D2.kind == "heisenberg" and D2.mu == 1.0
    for b1, b2 in zip(dh7.bases, D2.bases):
        assert b1.label == b2.label
        assert np.array_equal(b1.atoms, b2.atoms)


def test_truncated_file_raises(dh5):
    data = dump_dictionary(dh5)
    for cut in (4, 20, 100, len(data) - 3):
        with pytest.raises(FormatError):
            parse_dictionary(data[:cut])


def test_bad_magic_raises(dh5):
    data = bytearray(dump_dictionary(dh5))
    data[:8] = b"NOTADICT"
    with pytest.raises(FormatError):
        parse_dictionary(bytes(data))


def test_version_mismatch_raises(dh5):
    data = bytearray(dump_dictionary(dh5))
    data[8] = 99
    with pytest.raises(VersionMismatchError):
        parse_dictionary(bytes(data))


def test_corrupted_atoms_fail_integrity(dh5):
    data = bytearray(dump_dictionary(dh5))
    # zero out one atom's worth of payload near the end
    start = len(data) - 16 * 5
    data[start:] = bytes(16 * 5)
    with pytest.raises(IntegrityError):
        parse_dictionary(bytes(data))


def test_trailing_garbage_raises(dh5):
    data = dump_dictionary(dh5) + b"x"
    with pytest.raises(FormatError):
        parse_dictionary(data)


def test_coherence_violation_detected(dh5, tmp_path):
    from srip.dictionaries import _check_coherence
    from srip.errors import CoherenceViolationError

    # duplicating a basis makes a cross pair with inner product 1 > mu/sqrt(p)
    bad = Dictionary(5, "heisenberg", 1.0, [dh5.bases[0], dh5.bases[0]])
    with pytest.raises(CoherenceViolationError):
        _check_coherence(bad)
    rep = coherence_report(bad)
    assert not rep.passed
    assert rep.max_scaled_coherence == pytest.approx(np.sqrt(5), abs=1e-9)


LABEL_OFFSET = 33  # magic (8) + header (21) + label length (4)
MU_OFFSET = 21


def test_invalid_utf8_label_raises_format_error(dh5):
    data = bytearray(dump_dictionary(dh5))
    data[LABEL_OFFSET] = 0xFF
    with pytest.raises(FormatError):
        parse_dictionary(bytes(data))


@pytest.mark.parametrize("mu", [4.0, 100.0, float("nan")])
def test_stored_mu_must_match_kind(dh5, mu):
    data = bytearray(dump_dictionary(dh5))
    data[MU_OFFSET:MU_OFFSET + 8] = np.float64(mu).tobytes()
    with pytest.raises(FormatError):
        parse_dictionary(bytes(data))


def test_non_finite_atom_fails_integrity(dh5):
    atoms = dh5.bases[1].atoms.copy()
    atoms[2, 3] = np.nan
    with pytest.raises(IntegrityError):
        OrthonormalBasis("line:1", atoms)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=8))
def test_mutated_file_parses_or_raises_srip_error(dh5, edits):
    data = bytearray(dump_dictionary(dh5))
    for pos, value in edits:
        data[pos % len(data)] = value
    try:
        parse_dictionary(bytes(data))
    except SripError:
        pass


# ---------------------------------------------------------------------------
# closed forms and vectorized scans against independent oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_nonsplit_tori_match_conjugation_oracle(p):
    from oracles import conjugation_tori

    found = [
        ((t.generator.a, t.generator.b, t.generator.c, t.generator.d),
         tuple((e.a, e.b, e.c, e.d) for e in t.elements))
        for t in nonsplit_tori(PrimeField(p))
    ]
    assert found == conjugation_tori(p)


def _heisenberg(p):
    return build_heisenberg_dictionary(PrimeField(p))


def _extended7():
    return build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=8)


def _duplicated5():
    b = _heisenberg(5).bases[0]
    return Dictionary(5, "heisenberg", 1.0, [b, b])


@pytest.mark.parametrize(
    "make",
    [lambda: _heisenberg(31), lambda: _heisenberg(61), lambda: oscillator_dict(13),
     _extended7, _duplicated5],
    ids=["heisenberg31", "heisenberg61", "oscillator13", "extended7", "duplicated5"],
)
def test_coherence_report_matches_pairwise_oracle(make):
    from oracles import pairwise_coherence

    D = make()
    rep = coherence_report(D)
    pairs, worst, least, counts = pairwise_coherence(D)
    assert rep.cross_pairs_checked == pairs
    assert rep.histogram_counts == counts
    assert abs(rep.max_scaled_coherence - worst) <= 1e-14
    assert abs(rep.min_scaled_coherence - least) <= 1e-14


def test_cross_blocks_are_bounded_and_cover_every_pair():
    from srip.dictionaries import CROSS_BLOCK_SIZE, _cross_blocks

    D = _heisenberg(61)  # 8 bases per group, so several groups per basis
    sizes = [block.size for block in _cross_blocks(D)]
    assert max(sizes) <= CROSS_BLOCK_SIZE
    assert sum(sizes) == 62 * 61 // 2 * 61 * 61
    assert len(sizes) > D.basis_count


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_heisenberg_basis_matches_eigensolve(p):
    from srip.dictionaries import _eigenbasis_of

    f = PrimeField(p)
    for ln in lines(p):
        if ln.is_vertical:
            continue
        U = heisenberg_operator(f, HeisenbergElement(1, ln.slope, 0, p))
        solved = _eigenbasis_of(U, ln.label).atoms
        assert np.abs(heisenberg_basis(f, ln).atoms - solved).max() <= 1e-12, ln.label


def test_huge_atoms_raise_integrity_error_without_warnings(dh5):
    import struct
    import warnings

    data = bytearray(dump_dictionary(dh5))
    (label_len,) = struct.unpack("<I", data[LABEL_OFFSET - 4:LABEL_OFFSET])
    start = LABEL_OFFSET + label_len
    data[start:start + 16 * 25] = np.full(25, 1e200 + 1e200j, dtype="<c16").tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrityError):
            parse_dictionary(bytes(data))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 31])
@pytest.mark.parametrize("mu", [1.0, 4.0])
def test_coherence_rule_at_float_neighbours_of_the_bound(p, mu):
    from srip.dictionaries import COHERENCE_SLACK, within_coherence_bound

    bound = mu / np.sqrt(p) + COHERENCE_SLACK
    assert within_coherence_bound(bound, mu, p)
    assert within_coherence_bound(np.nextafter(bound, 0.0), mu, p)
    assert not within_coherence_bound(np.nextafter(bound, np.inf), mu, p)
    assert not within_coherence_bound(float("nan"), mu, p)


@pytest.mark.parametrize(
    "make",
    [lambda: _heisenberg(5), lambda: oscillator_dict(7), _duplicated5],
    ids=["heisenberg5", "oscillator7", "duplicated5"],
)
def test_build_check_raises_exactly_when_report_fails(make):
    from srip.dictionaries import _check_coherence
    from srip.errors import CoherenceViolationError

    D = make()
    try:
        _check_coherence(D)
        raised = False
    except CoherenceViolationError:
        raised = True
    assert raised == (not coherence_report(D).passed)
    assert raised == (D.basis_count == 2)  # only the duplicated basis violates


def test_dictionary_rejects_a_basis_that_is_not_p_by_p(dh5):
    # an orthonormal system of p - 2 vectors, and p = 5 bases declared under p = 7
    vectors, _ = diagonal_torus_system(PrimeField(5))
    with pytest.raises(DimensionMismatchError, match=r"'diagonal' has shape \(5, 3\)"):
        Dictionary(5, "heisenberg", 1.0, dh5.bases + [OrthonormalBasis("diagonal", vectors)])
    with pytest.raises(DimensionMismatchError, match=r"'line:0' has shape \(5, 5\), not 7 x 7"):
        Dictionary(7, "heisenberg", 1.0, dh5.bases)


@pytest.mark.parametrize(
    "make",
    [lambda: _heisenberg(5), lambda: oscillator_dict(7),
     lambda: build_extended_oscillator_dictionary(PrimeField(5)), _extended7],
    ids=["heisenberg5", "oscillator7", "extended5", "extended7"],
)
def test_atom_count_and_file_round_trip_of_every_kind(make):
    D = make()
    assert D.atom_count == D.p * D.basis_count == D.atoms_matrix.shape[1]
    D2 = parse_dictionary(dump_dictionary(D))
    assert [b.label for b in D2.bases] == [b.label for b in D.bases]
    assert all(b2.atoms.tobytes() == b.atoms.tobytes() for b, b2 in zip(D.bases, D2.bases))
