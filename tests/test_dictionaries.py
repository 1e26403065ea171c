import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srip.dictionaries import (
    Dictionary,
    build_extended_oscillator_dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
    coherence_report,
    load_dictionary,
    nonsplit_tori,
    save_dictionary,
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
from srip.operators import heisenberg_operators, weil_operators

from conftest import heisenberg_dict, oscillator_dict
from oracles import (
    SL2Element,
    diagonal_torus_system,
    dump_dictionary,
    parse_dictionary,
    row,
    scaling_operator,
    synthesize,
    torus_label,
)


def test_lines_count_and_distinct_slopes():
    labels = heisenberg_dict(5).labels
    assert len(labels) == 6
    assert len(set(labels)) == 6
    assert labels[-1] == "line:inf"


def test_lines_partition_nonzero_points():
    p = 7
    covered = set()
    for label in heisenberg_dict(p).labels:
        slope = label.removeprefix("line:")
        if slope == "inf":
            pts = {(0, w) for w in range(1, p)}
        else:
            pts = {(t, (int(slope) * t) % p) for t in range(1, p)}
        assert len(pts) == p - 1
        assert not (covered & pts)
        covered |= pts
    assert len(covered) == p * p - 1


def test_vertical_line_basis_is_identity():
    atoms = heisenberg_dict(7).stack[-1].T  # the vertical line comes last
    assert np.array_equal(atoms, np.eye(7, dtype=complex))


def test_line_bases_have_flat_magnitude():
    # the sloped lines come first, the vertical line last
    for atoms in heisenberg_dict(7).stack[:7].transpose(0, 2, 1):
        assert np.abs(np.abs(atoms) - 1 / np.sqrt(7)).max() <= 1e-8


@pytest.mark.parametrize("p", [11, 13])
def test_line_basis_fixed_atom_comes_first(p):
    # the eigenvalue-1 atom leads every line basis, whatever the sign of
    # the rounding noise in its eigenvalue's angle
    f = PrimeField(p)
    D = heisenberg_dict(p)
    for m, (label, rows) in enumerate(zip(D.labels[:p], D.stack)):
        U = heisenberg_operators(f, [(1, m, 0)])[0]
        v = rows[0]
        assert np.abs(U @ v - v).max() <= 1e-9, label


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

    for atoms in dh7.stack.transpose(0, 2, 1):
        for j in range(atoms.shape[1]):
            v = atoms[:, j]
            assert abs(np.linalg.norm(v) - 1) <= 1e-10
            k = anchor_index(v)
            assert v[k].imag == 0.0
            assert v[k].real > 0


def _torus_elements(generator, p):
    """The powers of the generator row, as SL2Elements in lexicographic (a, b, c, d) order."""
    g = SL2Element(*generator, p)
    powers = [SL2Element.identity(p)]
    while (acc := powers[-1] * g) != powers[0]:
        powers.append(acc)
    return tuple(sorted(powers, key=row))


def test_nonsplit_tori_structure():
    f = PrimeField(5)
    generators, conjugators = nonsplit_tori(f)
    assert generators.shape == conjugators.shape == (10, 4)  # p(p-1)/2 distinct subgroups
    eye = SL2Element.identity(5)
    minus = SL2Element(4, 0, 0, 4, 5)
    keys = set()
    for generator in generators.tolist():
        elements = _torus_elements(generator, 5)
        assert len(elements) == 6
        assert eye in elements
        assert minus in elements
        # pairwise commuting
        for s in elements:
            for t in elements:
                assert s * t == t * s
        # generator has exact order p+1
        g = SL2Element(*generator, 5)
        acc = g
        order = 1
        while acc != eye:
            acc = acc * g
            order += 1
        assert order == 6
        keys.add(tuple(row(t) for t in elements))
    assert len(keys) == 10


def test_oscillator_basis_eigenvector_residuals():
    f = PrimeField(7)
    generators, _ = nonsplit_tori(f)
    atoms = oscillator_dict(7).stack[0].T
    U = weil_operators(f, generators[:1])[0]
    assert atoms.shape == (7, 7)
    lam = np.einsum("ij,ik,kj->j", atoms.conj(), U, atoms)
    assert np.abs(U @ atoms - atoms * lam).max() <= 1e-8


def test_oscillator_basis_independent_of_generator():
    # p = 7: gcd(3, p+1) = 1, so t0^3 generates the same torus
    f = PrimeField(7)
    generator = SL2Element(*nonsplit_tori(f)[0][2], 7)
    b1 = oscillator_dict(7).stack[2].T
    cubed = generator * generator * generator
    b2 = unitary_eigenbasis(weil_operators(f, [row(cubed)])[0])
    overlap = np.abs(b1.conj().T @ b2)
    # every atom of one basis matches exactly one of the other up to phase
    assert np.allclose(np.sort(overlap.max(axis=0)), 1.0, atol=1e-7)
    assert np.allclose(np.sort(overlap.max(axis=1)), 1.0, atol=1e-7)


@pytest.mark.parametrize("p", [7, 13])
def test_oscillator_atoms_ordered_eigenvectors_of_torus_generator(p):
    f = PrimeField(p)
    D = oscillator_dict(p)
    for generator, label, rows in zip(nonsplit_tori(f)[0], D.labels, D.stack):
        U = weil_operators(f, [generator])[0]
        A = rows.T
        lam = np.einsum("ij,ij->j", A.conj(), U @ A)
        assert np.abs(U @ A - A * lam).max() <= 1e-8, label
        turns = np.mod(np.round(-np.angle(lam) / (2 * np.pi), 9), 1.0)
        assert (turns >= 0).all() and (turns < 1).all()
        assert (np.diff(turns) > 0).all(), label


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
    zero_bases = [D.stack[k] for k, label in enumerate(D.labels)
                  if label.endswith(";v:0,0") or ";" not in label]
    assert len(zero_bases) == DO.basis_count
    for zb, ob in zip(zero_bases, DO.stack):
        assert np.array_equal(zb, ob)


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
    from srip.operators import heisenberg_operators

    calls = []

    def counting(field, elements):
        calls.extend((tau, w) for tau, w, _ in np.asarray(elements).tolist())
        return heisenberg_operators(field, elements)

    monkeypatch.setattr(dictionaries, "heisenberg_operators", counting)
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
    assert np.array_equal(synthesize(f, dh5), dh5.atoms_matrix[:, 17])
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
    assert D2.labels == dh7.labels
    for k in range(dh7.basis_count):
        assert np.array_equal(dh7.stack[k], D2.stack[k])


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


def test_load_fails_as_parse_does(dh5, tmp_path):
    # the file reader and the in-memory parser are one reader: a file cut in
    # the header, in a label or in an atom record, one with a trailing byte
    # and one whose first label length runs past the end fail alike
    data = bytes(dump_dictionary(dh5))
    header = 8 + 21
    label_length = bytearray(data)
    label_length[header:header + 4] = b"\xff\xff\xff\xff"
    broken = [
        data[:20],
        data[:header + 4 + 2],
        data[:-3],
        data + b"x",
        bytes(label_length),
    ]
    messages = set()
    for i, image in enumerate(broken):
        path = tmp_path / f"broken{i}.srip"
        path.write_bytes(image)
        with pytest.raises(FormatError) as parsed:
            parse_dictionary(path.read_bytes())
        with pytest.raises(FormatError) as loaded:
            load_dictionary(path)
        assert str(loaded.value) == str(parsed.value)
        messages.add(str(parsed.value))
    assert messages == {
        "unexpected end of file",
        "declared basis count exceeds the file size",
        "trailing bytes after the last basis",
    }


@pytest.mark.parametrize("p", [6, 9])
def test_composite_dimension_is_refused(dh5, tmp_path, p):
    # dh5's file image with its p field (after the magic and the version) rewritten
    data = bytearray(dump_dictionary(dh5))
    data[12:16] = p.to_bytes(4, "little")
    path = tmp_path / f"p{p}.srip"
    path.write_bytes(bytes(data))
    message = f"dimension p = {p} is not prime"
    with pytest.raises(FormatError, match=message):
        parse_dictionary(bytes(data))
    with pytest.raises(FormatError, match=message):
        load_dictionary(path)


def test_coherence_violation_detected(dh5, tmp_path):
    from srip.dictionaries import _check_coherence
    from srip.errors import CoherenceViolationError

    # duplicating a basis makes a cross pair with inner product 1 > mu/sqrt(p)
    bad = Dictionary(5, "heisenberg", 1.0, ["line:0"] * 2, dh5.stack[[0, 0]])
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
    atoms = dh5.stack[1].T.copy()
    atoms[2, 3] = np.nan
    with pytest.raises(IntegrityError):
        Dictionary(5, "heisenberg", 1.0, ["line:1"], atoms.T[None])


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

    generators, _ = nonsplit_tori(PrimeField(p))
    found = [
        (tuple(generator), tuple(row(e) for e in _torus_elements(generator, p)))
        for generator in generators.tolist()
    ]
    assert found == conjugation_tori(p)


def _heisenberg(p):
    return build_heisenberg_dictionary(PrimeField(p))


def _extended7():
    return build_extended_oscillator_dictionary(PrimeField(7), translation_subsample=8)


def _duplicated5():
    return Dictionary(5, "heisenberg", 1.0, ["line:0"] * 2, _heisenberg(5).stack[[0, 0]])


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


def _pairwise(D):
    """The bases of ``D`` as a dictionary that is no orbit, so every pair is scanned."""
    return Dictionary(D.p, D.kind, D.mu, D.labels, D.stack)


def test_cross_blocks_are_bounded_and_cover_every_pair():
    from srip.dictionaries import _cross_blocks
    from srip.linalg import CHUNK_ENTRIES

    D = _pairwise(_heisenberg(61))  # 8 bases per group, so several groups per basis
    sizes = [block.size for block in _cross_blocks(D)]
    assert max(sizes) <= CHUNK_ENTRIES
    assert sum(sizes) == 62 * 61 // 2 * 61 * 61
    assert len(sizes) > D.basis_count


@pytest.mark.parametrize(
    "make, panels",
    [(lambda: oscillator_dict(13), 16), (_extended7, 9)],
    ids=["oscillator13", "extended7"],
)
def test_column_panels_form_each_pair_once(monkeypatch, make, panels):
    import srip.dictionaries as dictionaries
    import srip.linalg as linalg
    from oracles import pairwise_coherence, pairwise_values

    D = make()
    # 5 oscillator p = 13 bases, or 20 extended p = 7 bases, per panel
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 1000)
    step = 1000 // (D.p * D.p)
    assert -(-(D.basis_count - 1) // step) == panels
    blocks = list(map(np.abs, dictionaries._cross_blocks(_pairwise(D))))
    values = np.sort(np.concatenate([block.ravel() for block in blocks]))
    # a pair formed twice in place of another moves the sorted values by far
    # more than the last-bit differences between product shapes
    assert values.size == D.basis_count * (D.basis_count - 1) // 2 * D.p * D.p
    assert np.abs(values - np.sort(pairwise_values(D))).max() <= 1e-15

    rep = coherence_report(D)
    pairs, worst, least, counts = pairwise_coherence(D)
    assert rep.cross_pairs_checked == pairs
    assert rep.histogram_counts == counts
    assert abs(rep.max_scaled_coherence - worst) <= 1e-14
    assert abs(rep.min_scaled_coherence - least) <= 1e-14


def test_heisenberg_report_bins_every_block_at_once():
    D = _heisenberg(61)
    rep = coherence_report(D)
    assert rep.histogram_counts[26] == rep.cross_pairs_checked == 62 * 61 // 2 * 61 * 61


def test_histogram_leaves_out_pairs_above_its_range():
    # two copies of one basis: the 5 pairs of an atom with itself read sqrt(5) > 1.5
    rep = coherence_report(_duplicated5())
    assert rep.histogram_edges[-1] == 1.5
    assert rep.cross_pairs_checked == 25
    assert rep.histogram_counts[0] == 20
    assert sum(rep.histogram_counts) == 20
    assert not rep.passed


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_heisenberg_basis_matches_eigensolve(p):
    f = PrimeField(p)
    D = heisenberg_dict(p)
    for m, (label, rows) in enumerate(zip(D.labels[:p], D.stack)):
        U = heisenberg_operators(f, [(1, m, 0)])[0]
        solved = unitary_eigenbasis(U)
        assert np.abs(rows.T - solved).max() <= 1e-12, label


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
    with pytest.raises(DimensionMismatchError, match=r"stack has shape \(2, 5, 5\), not 1 x 5 x 5"):
        Dictionary(5, "heisenberg", 1.0, ["line:0"], np.zeros((2, 5, 5), dtype=complex))


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
    assert D2.labels == D.labels
    assert all(D2.stack[k].tobytes() == D.stack[k].tobytes() for k in range(D.basis_count))


# the group-action build and the anchor-row coherence check
# ---------------------------------------------------------------------------


def _assert_bases_match(D, expected):
    assert list(D.labels) == [label for label, _ in expected]
    for rows, (label, atoms) in zip(D.stack, expected):
        assert np.abs(rows.T - atoms).max() <= 1e-12, label


@pytest.mark.parametrize("p", [7, 13, 17])
def test_group_action_bases_match_per_torus_eigensolve(p):
    from oracles import eigensolved_oscillator_bases

    f = PrimeField(p)
    _assert_bases_match(oscillator_dict(p), eigensolved_oscillator_bases(f, nonsplit_tori(f)[0]))


def test_extended_bases_match_per_torus_eigensolve():
    from oracles import eigensolved_oscillator_bases

    f = PrimeField(7)
    D = _extended7()
    # the seeded translations, read off the first torus's bases
    translations = [
        tuple(int(x) for x in label.split(";v:")[1].split(",")) if ";v:" in label else (0, 0)
        for label in D.labels[:8]
    ]
    _assert_bases_match(D, eigensolved_oscillator_bases(f, nonsplit_tori(f)[0], translations))


def test_wrong_conjugator_fails_the_build(monkeypatch):
    import srip.dictionaries as dictionaries
    from srip.errors import DegenerateSpectrumError

    real = dictionaries.nonsplit_tori

    def skewed(field):
        generators, conjugators = real(field)
        # torus 3 keeps its generator but is given the conjugator of torus 5
        conjugators[3] = conjugators[5]
        return generators, conjugators

    monkeypatch.setattr(dictionaries, "nonsplit_tori", skewed)
    label = torus_label(real(PrimeField(7))[0][3])
    with pytest.raises(DegenerateSpectrumError, match=label):
        build_oscillator_dictionary(PrimeField(7))


@pytest.mark.parametrize(
    "kind,p",
    [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]
    + [("oscillator", p) for p in (5, 7, 11, 13, 17, 19)]
    + [pytest.param("oscillator", p, marks=pytest.mark.slow) for p in (23, 29, 31)]
    + [("extended_oscillator", 5)],
)
def test_anchor_maximum_equals_pairwise_maximum(kind, p):
    from oracles import pairwise_coherence
    from srip.dictionaries import _check_coherence

    build = {"heisenberg": build_heisenberg_dictionary,
             "oscillator": build_oscillator_dictionary,
             "extended_oscillator": build_extended_oscillator_dictionary}
    D = build[kind](PrimeField(p))
    anchor = np.sqrt(p) * _check_coherence(D)
    assert abs(anchor - pairwise_coherence(D)[1]) <= 1e-12


def test_heisenberg_build_check_covers_only_the_anchor_row(monkeypatch):
    import srip.dictionaries as dictionaries

    blocks = []
    real = dictionaries._cross_blocks

    def spy(D, *args, **kwargs):
        for block in real(D, *args, **kwargs):
            blocks.append(np.abs(block))
            yield block

    monkeypatch.setattr(dictionaries, "_cross_blocks", spy)
    D = build_heisenberg_dictionary(PrimeField(61))
    others = D.atoms_matrix[:, D.p:]
    anchor_row = np.abs(D.stack[0].conj() @ others)
    assert np.abs(np.hstack(blocks) - anchor_row).max() <= 1e-15


# the stacked build, check and load
# ---------------------------------------------------------------------------


def _subsampled_translations(p, count, seed=0):
    """The translations ``build_extended_oscillator_dictionary`` keeps, in order."""
    every = [(tau, w) for tau in range(p) for w in range(p)]
    chosen = np.random.Generator(np.random.Philox(key=seed)).choice(len(every), count, replace=False)
    return [every[i] for i in sorted(chosen)]


@pytest.mark.parametrize(
    "kind, p, count",
    [("heisenberg", p, None) for p in (5, 7, 13, 17, 31)]
    + [("oscillator", p, None) for p in (5, 7, 13, 17, 31)]
    + [("extended_oscillator", 5, None), ("extended_oscillator", 7, 8)],
)
def test_stacked_builds_equal_the_per_basis_builds_byte_for_byte(kind, p, count):
    from oracles import per_basis_bases
    from srip.dictionaries import KIND_MU

    f = PrimeField(p)
    if kind == "heisenberg":
        D, translations = build_heisenberg_dictionary(f), None
    elif kind == "oscillator":
        D, translations = oscillator_dict(p), None
    else:
        D = build_extended_oscillator_dictionary(f, translation_subsample=count)
        translations = _subsampled_translations(p, count) if count else \
            [(tau, w) for tau in range(p) for w in range(p)]
    expected = per_basis_bases(f, kind, translations)
    assert list(D.labels) == [label for label, _, _ in expected]
    for rows, deviation, (label, atoms, dev) in zip(D.stack, D.deviations, expected):
        assert rows.T.tobytes() == atoms.tobytes(), label
        assert deviation == dev, label
    one_at_a_time = Dictionary(p, kind, KIND_MU[kind], [label for label, _, _ in expected],
                               np.stack([atoms.T for _, atoms, _ in expected]))
    assert dump_dictionary(D) == dump_dictionary(one_at_a_time)


@pytest.mark.parametrize("source", ["built", "loaded", "hand-made"])
def test_one_read_only_stack_is_the_atoms_matrix_every_basis_and_every_record(source, tmp_path):
    built = build_oscillator_dictionary(PrimeField(13))
    if source == "built":
        D = built
    elif source == "loaded":
        save_dictionary(tmp_path / "o13.srip", built)
        D = load_dictionary(tmp_path / "o13.srip")
    else:
        D = Dictionary(13, "oscillator", 4.0, built.labels, built.stack.copy())
    stack = D.stack
    assert stack.shape == (D.basis_count, 13, 13)
    assert stack.flags.c_contiguous and not stack.flags.writeable
    assert np.shares_memory(D.atoms_matrix, stack)
    assert np.array_equal(D.atoms_matrix, np.hstack([rows.T.copy() for rows in stack]))
    data = dump_dictionary(D)
    for k, label in enumerate(D.labels):
        atoms = stack[k].T
        assert np.shares_memory(atoms, stack) and not atoms.flags.writeable
        assert np.array_equal(atoms, built.stack[k].T)
        start = _record_offset(D, k)
        assert data[start:start + 16 * 169] == stack[k].tobytes(), label


def test_a_dictionary_without_bases_has_a_p_by_0_atoms_matrix():
    empty = Dictionary(5, "heisenberg", 1.0, [], np.zeros((0, 5, 5), dtype=complex))
    for D in (empty, parse_dictionary(dump_dictionary(empty))):
        assert D.basis_count == D.atom_count == 0 and D.labels == ()
        assert D.atoms_matrix.shape == (5, 0)
        assert np.array_equal(synthesize(np.zeros(0), D), np.zeros(5))
        with pytest.raises(IndexError):
            D.atoms_matrix[:, 0]


def _record_offset(D, k):
    """Byte offset of the atoms of basis k in the file image of D."""
    return 8 + 21 + sum(4 + len(label.encode()) + 16 * D.p * D.p for label in D.labels[:k]) \
        + 4 + len(D.labels[k].encode())


@pytest.mark.parametrize("fault", ["entry", "orthonormality"])
def test_a_bad_basis_mid_chunk_fails_the_load_by_its_label(tmp_path, fault):
    import re

    from srip.linalg import chunks

    D = oscillator_dict(13)
    blocks = chunks(D.basis_count, 4 * 13 * 13)
    assert len(blocks) > 1
    lo, hi = blocks[1]
    k = (lo + hi) // 2
    assert lo < k < hi - 1
    data = bytearray(dump_dictionary(D))
    atoms = D.stack[k].T.copy()
    if fault == "entry":
        atoms[3, 5] = 1.5  # an entry above 1
        message = "an entry is non-finite or exceeds 1"
    else:
        atoms[:, 2] *= 1 + 1e-6  # every entry below 1, one atom 1e-6 too long
        message = "orthonormality deviation"
    start = _record_offset(D, k)
    data[start:start + 16 * 169] = np.ascontiguousarray(atoms.T).astype("<c16").tobytes()
    path = tmp_path / "bad.srip"
    path.write_bytes(bytes(data))
    for read in (lambda: parse_dictionary(bytes(data)), lambda: load_dictionary(path)):
        with pytest.raises(IntegrityError, match=re.escape(f"basis {D.labels[k]!r}: {message}")):
            read()


@pytest.mark.parametrize("p", [5, 13, 61])
def test_the_monomial_chirp_check_is_the_operator(p):
    from srip.operators import heisenberg_action

    f = PrimeField(p)
    D = build_heisenberg_dictionary(f)
    slopes = np.arange(p)
    atoms = np.stack([rows.T for rows in D.stack[:p]])
    elements = np.stack([np.ones_like(slopes), slopes, 0 * slopes], axis=1)
    applied = heisenberg_action(f, elements, atoms)
    for m in range(p):
        dense = heisenberg_operators(f, [(1, m, 0)])[0] @ atoms[m]
        assert np.abs(applied[m] - dense).max() <= 1e-15, m


def test_a_chirp_with_one_corrupted_entry_fails_its_check():
    import srip.dictionaries as dictionaries
    from srip.errors import DegenerateSpectrumError

    f = PrimeField(13)
    slopes = np.arange(5)
    labels = [f"line:{m}" for m in slopes]
    atoms = np.empty((5, 13, 13), dtype=complex)
    dictionaries._chirps(f, slopes, labels, atoms)  # passes its own check
    atoms[3, 7, 2] *= np.exp(1e-6j)
    with pytest.raises(DegenerateSpectrumError, match="'line:3'"):
        dictionaries._check_chirps(f, slopes, labels, atoms)


@pytest.mark.parametrize("build, p", [(build_heisenberg_dictionary, 61),
                                      (build_oscillator_dictionary, 17)])
def test_build_memory_is_the_dictionary_plus_a_few_chunks(build, p):
    import tracemalloc

    from srip.linalg import CHUNK_ENTRIES

    f = PrimeField(p)
    build(PrimeField(5))  # first-call caches
    tracemalloc.start()
    try:
        D = build(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the anchor coherence check holds about ten chunks' worth at once
    assert peak <= 16 * D.basis_count * p * p + 16 * (4 * CHUNK_ENTRIES)


def test_dictionary_bases_are_immutable(dh5):
    D = Dictionary(5, "heisenberg", 1.0, list(dh5.labels), dh5.stack.copy())
    assert D.atom_count == D.atoms_matrix.shape[1] == 30


def test_load_memory_is_the_dictionary_plus_a_few_chunks(tmp_path):
    import tracemalloc

    from srip.linalg import CHUNK_ENTRIES

    p = 61
    path = tmp_path / "h61.srip"
    save_dictionary(path, build_heisenberg_dictionary(PrimeField(p)))
    load_dictionary(path).atoms_matrix  # first-call caches
    tracemalloc.start()
    try:
        D = load_dictionary(path)
        M = D.atoms_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (p, D.atom_count)
    assert peak <= 16 * D.basis_count * p * p + 16 * (4 * CHUNK_ENTRIES)


@pytest.mark.parametrize("budget", [1, 200, 2**22])
@pytest.mark.parametrize(
    "make",
    [lambda: _heisenberg(61), lambda: build_oscillator_dictionary(PrimeField(13)),
     lambda: build_oscillator_dictionary(PrimeField(17)), _extended7],
    ids=["heisenberg61", "oscillator13", "oscillator17", "extended7"],
)
def test_the_chunk_budget_sets_memory_not_results(monkeypatch, make, budget):
    import srip.linalg as linalg
    from srip.spectra import _campaign

    def run():
        D = make()
        return D, coherence_report(D), _campaign(D, 0.3, 40, 7)[1]

    D0, rep0, eigs0 = run()
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", budget)
    D, rep, eigs = run()
    assert D.labels == D0.labels
    assert D.stack.tobytes() == D0.stack.tobytes()
    assert D.deviations.tobytes() == D0.deviations.tobytes()
    assert eigs.tobytes() == eigs0.tobytes()
    assert rep.cross_pairs_checked == rep0.cross_pairs_checked
    assert rep.histogram_counts == rep0.histogram_counts
    assert abs(rep.max_scaled_coherence - rep0.max_scaled_coherence) <= 1e-14
    assert abs(rep.min_scaled_coherence - rep0.min_scaled_coherence) <= 1e-14


# orbit dictionaries: reports through the anchor row
# ---------------------------------------------------------------------------


def _orbit(kind, p):
    if kind == "heisenberg":
        return heisenberg_dict(p)
    if kind == "oscillator":
        return oscillator_dict(p)
    return build_extended_oscillator_dictionary(PrimeField(p))


@pytest.mark.parametrize(
    "kind,p",
    [("heisenberg", p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]
    + [("oscillator", p) for p in (5, 7, 11, 13, 17, 19)]
    + [pytest.param("oscillator", p, marks=pytest.mark.slow) for p in (23, 29, 31)]
    + [("extended_oscillator", 5)],
)
def test_anchor_report_equals_pairwise_oracle(kind, p):
    from oracles import pairwise_coherence

    D = _orbit(kind, p)
    assert D.orbit
    rep = coherence_report(D)
    pairs, worst, least, counts = pairwise_coherence(D)
    assert rep.scan == "anchor"
    assert rep.cross_pairs_checked == pairs
    assert rep.histogram_counts == counts
    assert abs(rep.max_scaled_coherence - worst) <= 1e-14
    assert abs(rep.min_scaled_coherence - least) <= 1e-14


def test_only_full_builds_are_orbits(tmp_path, dh5):
    subsample = build_extended_oscillator_dictionary(PrimeField(5), translation_subsample=25)
    hand_made = Dictionary(5, "heisenberg", 1.0, dh5.labels, dh5.stack.copy())
    save_dictionary(tmp_path / "h5.srip", dh5)
    loaded = load_dictionary(tmp_path / "h5.srip")
    for D in (subsample, hand_made, loaded):
        assert not D.orbit
        assert coherence_report(D).scan == "pairwise"
        with pytest.raises(AttributeError, match="fixed at construction"):
            D.orbit = True
    # the marker is not part of the file: the same bases write the same bytes
    save_dictionary(tmp_path / "hand.srip", hand_made)
    assert (tmp_path / "hand.srip").read_bytes() == (tmp_path / "h5.srip").read_bytes()
    with pytest.raises(TypeError):
        Dictionary(5, "heisenberg", 1.0, dh5.labels, dh5.stack, True)  # keyword only


def test_orbit_report_reads_the_anchor_row_only(monkeypatch):
    import srip.dictionaries as dictionaries

    D = oscillator_dict(13)
    anchors = []
    real = dictionaries._cross_blocks

    def spy(D):
        anchors.append(D.orbit)
        return real(D)

    monkeypatch.setattr(dictionaries, "_cross_blocks", spy)
    rep = coherence_report(D)
    assert anchors == [True]
    assert rep.cross_pairs_checked == 78 * 77 // 2 * 13 * 13
    assert sum(rep.histogram_counts) == rep.cross_pairs_checked
