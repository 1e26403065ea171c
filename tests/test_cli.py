import hashlib
import json
import struct

import pytest

from srip.cli import main


def _run(*argv):
    return main(list(argv))


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_then_coherence(tmp_path):
    out = tmp_path / "d11.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "11", "--out", str(out)) == 0
    assert out.exists()
    report = tmp_path / "rep.json"
    assert _run("coherence", "--in", str(out), "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["report"]["passed"] is True
    assert abs(payload["report"]["max_scaled_coherence"] - 1.0) <= 1e-9
    assert "duration_seconds" in payload
    assert payload["config"]["command"] == "coherence"


def test_invalid_prime_exits_2_without_output(tmp_path):
    out = tmp_path / "bad.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "4", "--out", str(out)) == 2
    assert not out.exists()
    assert _run("build", "--kind", "heisenberg", "--p", "3", "--out", str(out)) == 2
    assert not out.exists()


def test_paths_verify_tree_count(tmp_path, capsys):
    assert _run("paths-verify", "--k", "8", "--out-prefix", str(tmp_path / "cls")) == 0
    captured = capsys.readouterr()
    assert "14 trees" in captured.out
    lines = (tmp_path / "cls.classes.csv").read_text().strip().splitlines()
    assert lines[0] == "class,k,vertices,is_tree,dyck"
    trees = [ln for ln in lines[1:] if ln.split(",")[3] == "1"]
    assert len(trees) == 14


def test_paths_verify_with_ladder(tmp_path, capsys):
    code = _run(
        "paths-verify", "--k", "3", "--ladder", "5,7", "--fixed-n", "3",
        "--out-prefix", str(tmp_path / "est"),
    )
    assert code == 0
    est = (tmp_path / "est.estimates.csv").read_text().strip().splitlines()
    assert est[0] == "class,p,n_tau_Ew_real,n_tau_Ew_imag"
    assert len(est) == 3  # one class, two primes


def test_campaign_requires_dict_source(tmp_path):
    assert _run("moments", "--trials", "5", "--out-prefix", str(tmp_path / "x")) == 2
    assert (
        _run(
            "moments", "--kind", "heisenberg", "--trials", "5",
            "--out-prefix", str(tmp_path / "x"),
        )
        == 2
    )


def test_moments_and_srip_outputs(tmp_path):
    prefix = tmp_path / "m11"
    code = _run(
        "moments", "--kind", "heisenberg", "--p", "11", "--trials", "20",
        "--kmax", "3", "--seed", "9", "--out-prefix", str(prefix),
    )
    assert code == 0
    rows = (tmp_path / "m11.moments.csv").read_text().strip().splitlines()
    assert rows[0] == "k,mean,variance,semicircle_moment"
    assert len(rows) == 4
    payload = json.loads((tmp_path / "m11.report.json").read_text())
    assert payload["report"]["trials"] == 20
    assert payload["report"]["seed"] == 9
    assert payload["version"]

    code = _run(
        "srip", "--kind", "heisenberg", "--p", "11", "--trials", "20",
        "--seed", "9", "--out-prefix", str(tmp_path / "s11"),
    )
    assert code == 0
    rows = (tmp_path / "s11.srip.csv").read_text().strip().splitlines()
    assert rows[0] == "threshold_kind,threshold,frequency"
    assert len(rows) == 3


def test_spectrum_writes_eigenvalue_pool(tmp_path):
    prefix = tmp_path / "spc"
    code = _run(
        "spectrum", "--kind", "heisenberg", "--p", "11", "--trials", "10",
        "--kmax", "2", "--out-prefix", str(prefix),
    )
    assert code == 0
    pool = (tmp_path / "spc.eigenvalues.csv").read_text().strip().splitlines()
    assert pool[0] == "lambda"
    assert len(pool) == 1 + 10 * 5
    float(pool[1])  # parseable


def test_determinism_and_input_immutability(tmp_path):
    dict_file = tmp_path / "d7.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "7", "--out", str(dict_file)) == 0
    before = _sha(dict_file)

    for prefix in ("r1", "r2"):
        code = _run(
            "moments", "--in", str(dict_file), "--trials", "25", "--kmax", "4",
            "--seed", "42", "--out-prefix", str(tmp_path / prefix),
        )
        assert code == 0

    assert _sha(tmp_path / "r1.moments.csv") == _sha(tmp_path / "r2.moments.csv")
    p1 = json.loads((tmp_path / "r1.report.json").read_text())
    p2 = json.loads((tmp_path / "r2.report.json").read_text())
    p1.pop("duration_seconds")
    p2.pop("duration_seconds")
    assert p1 == p2
    assert _sha(dict_file) == before  # inputs never mutated


def test_one_parser_serves_every_call_and_keeps_nothing(tmp_path):
    from srip.cli import build_parser

    assert build_parser() is build_parser()
    spectrum = ("spectrum", "--kind", "heisenberg", "--p", "5", "--trials", "5")
    assert _run(*spectrum, "--out-prefix", str(tmp_path / "a")) == 0
    # a call with other values between the two must leave nothing behind
    assert _run("srip", "--kind", "heisenberg", "--p", "7", "--trials", "3", "--seed", "9",
                "--epsilon", "0.2", "--out-prefix", str(tmp_path / "between")) == 0
    assert _run(*spectrum, "--out-prefix", str(tmp_path / "b")) == 0

    def without_duration(path):
        return [ln for ln in path.read_bytes().splitlines() if b'"duration_seconds"' not in ln]

    for suffix in ("eigenvalues.csv", "moments.csv", "srip.csv", "report.json"):
        assert (without_duration(tmp_path / f"a.{suffix}")
                == without_duration(tmp_path / f"b.{suffix}")), suffix


def test_threads_flag_and_env(tmp_path, monkeypatch):
    for argv in [
        ("build", "--kind", "heisenberg", "--p", "7", "--out", str(tmp_path / "t2.srip")),
        *[(command, "--kind", "heisenberg", "--p", "7", "--trials", "10",
           "--out-prefix", str(tmp_path / "t2")) for command in ("spectrum", "srip", "moments")],
        ("paths-verify", "--k", "4", "--out-prefix", str(tmp_path / "t2")),
    ]:
        assert _run(*argv, "--threads", "2") == 2, argv[0]
    assert list(tmp_path.iterdir()) == []

    code = _run(
        "moments", "--kind", "heisenberg", "--p", "7", "--trials", "10",
        "--out-prefix", str(tmp_path / "t1"),
    )
    assert code == 0
    monkeypatch.setenv("SRIP_THREADS", "2")
    code = _run(
        "moments", "--kind", "heisenberg", "--p", "7", "--trials", "10",
        "--out-prefix", str(tmp_path / "tenv"),
    )
    assert code == 0
    assert _sha(tmp_path / "t1.moments.csv") == _sha(tmp_path / "tenv.moments.csv")


def test_extended_build_with_subsample(tmp_path):
    out = tmp_path / "eo7.srip"
    code = _run(
        "build", "--kind", "extended_oscillator", "--p", "7",
        "--translations", "4", "--subsample-seed", "5", "--out", str(out),
    )
    assert code == 0
    assert _run("coherence", "--in", str(out)) == 0


def test_extended_build_without_opt_in_fails(tmp_path):
    out = tmp_path / "eo7full.srip"
    code = _run("build", "--kind", "extended_oscillator", "--p", "7", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_truncated_input_is_contract_violation(tmp_path):
    dict_file = tmp_path / "d5.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(dict_file)) == 0
    data = dict_file.read_bytes()
    broken = tmp_path / "broken.srip"
    broken.write_bytes(data[: len(data) // 2])
    assert _run("coherence", "--in", str(broken)) == 3


def test_coherence_violation_exits_3(tmp_path, dh5):
    from srip.dictionaries import Dictionary, save_dictionary

    bad = Dictionary(5, "heisenberg", 1.0, ["line:0"] * 2, dh5.stack[[0, 0]])
    path = tmp_path / "bad.srip"
    save_dictionary(path, bad)
    assert _run("coherence", "--in", str(path)) == 3


def test_coherence_on_composite_dimension_exits_3(tmp_path, capsys):
    import numpy as np

    from srip.dictionaries import Dictionary, save_dictionary

    # the identity and the 6-point Fourier basis: mu-coherent, but p = 6 is no prime
    t = np.arange(6)
    fourier = np.exp(2j * np.pi * np.outer(t, t) / 6) / np.sqrt(6)
    stack = np.stack([np.eye(6), fourier])  # both symmetric: rows and columns are the atoms
    path = tmp_path / "p6.srip"
    save_dictionary(path, Dictionary(6, "heisenberg", 1.0, ["identity", "fourier"], stack))
    assert _run("coherence", "--in", str(path)) == 3
    assert "dimension p = 6 is not prime" in capsys.readouterr().err


def test_paths_verify_out_of_range_k_exits_2(tmp_path):
    assert _run("paths-verify", "--k", "11") == 2
    assert _run("paths-verify", "--k", "1") == 2


@pytest.mark.parametrize("argv", [
    ("--ladder", "5,7", "--fixed-n", "0"),
    ("--ladder", "5,7", "--fixed-n", "-2"),
    ("--ladder", "5,7", "--epsilon", "1.5"),
    ("--ladder", "5,9"),
    ("--ladder", "5,5"),
    ("--ladder", "5,7,5", "--fixed-n", "3"),
    ("--fixed-n", "3"),
    ("--ladder", ""),
])
def test_bad_ladder_exits_2_before_writing_or_building(tmp_path, monkeypatch, capsys, argv):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a ladder dictionary was built before the ladder was checked")

    monkeypatch.setattr(srip.cli, "build_heisenberg_dictionary", refuse)
    code = _run("paths-verify", "--k", "4", *argv, "--out-prefix", str(tmp_path / "pv"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("fixed_n, code", [("31", 2), ("30", 0)])
def test_fixed_n_beyond_the_smallest_rung_exits_2_writing_nothing(tmp_path, capsys, fixed_n, code):
    # the heisenberg p = 5 rung has 30 atoms, so no support of 31 distinct atoms
    assert _run("paths-verify", "--k", "4", "--ladder", "5,7", "--fixed-n", fixed_n,
                "--out-prefix", str(tmp_path / "pv")) == code
    out, err = capsys.readouterr()
    if code:
        assert err == "error: support size n=31 invalid for |D|=30\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
    else:
        assert sorted(f.name for f in tmp_path.iterdir()) == ["pv.classes.csv", "pv.estimates.csv"]

def test_non_finite_atom_is_contract_violation(tmp_path):
    dict_file = tmp_path / "d5.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(dict_file)) == 0
    data = bytearray(dict_file.read_bytes())
    data[-8:] = struct.pack("<d", float("nan"))  # imaginary part of the last entry
    broken = tmp_path / "nan.srip"
    broken.write_bytes(bytes(data))
    assert _run("coherence", "--in", str(broken)) == 3


@pytest.mark.parametrize("epsilon", ["-0.5", "0", "1", "1.5", "nan"])
def test_epsilon_outside_unit_interval_exits_2(tmp_path, epsilon):
    prefix = tmp_path / "eps"
    code = _run(
        "srip", "--kind", "heisenberg", "--p", "5", "--trials", "5",
        "--epsilon", epsilon, "--out-prefix", str(prefix),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_build_onto_directory_exits_2_without_temp_file(tmp_path):
    target = tmp_path / "out.srip"
    target.mkdir()
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(target)) == 2
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_build_too_large_to_allocate_exits_2_writing_nothing(tmp_path, capsys):
    # numpy refuses the 14.2 PiB stack at once, before anything is allocated
    out = tmp_path / "x.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "100003", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_bad_epsilon_exits_2_before_building(tmp_path, monkeypatch):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was built before epsilon was checked")

    monkeypatch.setattr(srip.cli, "build_oscillator_dictionary", refuse)
    code = _run(
        "srip", "--kind", "oscillator", "--p", "31", "--trials", "5",
        "--epsilon", "-0.5", "--out-prefix", str(tmp_path / "eps"),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_moments_on_zero_basis_file_exits_2(tmp_path, capsys):
    import numpy as np

    from srip.dictionaries import Dictionary, save_dictionary

    empty = tmp_path / "empty.srip"
    save_dictionary(empty, Dictionary(5, "heisenberg", 1.0, [], np.zeros((0, 5, 5))))
    prefix = tmp_path / "out" / "m"
    code = _run("moments", "--in", str(empty), "--trials", "5", "--out-prefix", str(prefix))
    assert code == 2
    assert "support size n=3 invalid for |D|=0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("--trials", "0", "--epsilon", "0.3"),
    ("--trials", "5", "--epsilon", "0.99"),  # floor(31^0.01) = 1
])
def test_bad_campaign_size_exits_2_before_building(tmp_path, monkeypatch, argv):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was built before the campaign rules were checked")

    monkeypatch.setattr(srip.cli, "build_oscillator_dictionary", refuse)
    code = _run("srip", "--kind", "oscillator", "--p", "31", *argv,
                "--out-prefix", str(tmp_path / "bad"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["moments", "spectrum"])
@pytest.mark.parametrize("source", [("--kind", "oscillator", "--p", "31"), ("--in", "absent.srip")])
def test_kmax_zero_exits_2_before_loading_or_building(tmp_path, monkeypatch, command, source):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was made before kmax was checked")

    monkeypatch.setattr(srip.cli, "build_oscillator_dictionary", refuse)
    monkeypatch.setattr(srip.cli, "load_dictionary", refuse)
    # kmax runs to paths.MAX_LENGTH = 10; far past it a semicircle moment overflows a float
    for kmax in ("0", "11"):
        code = _run(command, *source, "--kmax", kmax, "--trials", "5",
                    "--out-prefix", str(tmp_path / f"k{kmax}"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("e", ["-2", "-3", "nan", "inf"])
@pytest.mark.parametrize("source", [("--kind", "oscillator", "--p", "31"), ("--in", "absent.srip")])
def test_bad_delta_exponent_exits_2_before_loading_or_building(tmp_path, monkeypatch, source, e):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was made before the delta exponent was checked")

    monkeypatch.setattr(srip.cli, "build_oscillator_dictionary", refuse)
    monkeypatch.setattr(srip.cli, "load_dictionary", refuse)
    code = _run("srip", *source, "--delta-exponent", e, "--trials", "3",
                "--out-prefix", str(tmp_path / "out" / "d"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_full_extended_campaign_error_names_the_cli_route(tmp_path, capsys):
    prefix = tmp_path / "e7"
    code = _run(
        "spectrum", "--kind", "extended_oscillator", "--p", "7", "--trials", "5",
        "--out-prefix", str(prefix),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "srip build --translations N" in err
    assert "--allow-large" in err
    assert "--in" in err
    assert list(tmp_path.iterdir()) == []


def test_reports_echo_no_unset_config_keys(tmp_path):
    dict_file = tmp_path / "d5.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(dict_file)) == 0
    assert _run("coherence", "--in", str(dict_file), "--out", str(tmp_path / "c.json")) == 0
    reports = [tmp_path / "c.json"]
    for command in ("spectrum", "srip", "moments"):
        prefix = tmp_path / command
        assert _run(command, "--in", str(dict_file), "--trials", "3",
                    "--out-prefix", str(prefix)) == 0
        reports.append(tmp_path / f"{command}.report.json")
    for report in reports:
        config = json.loads(report.read_text())["config"]
        assert not {"translations", "subsample_seed", "k", "ladder"} & set(config), report.name
        assert "threads" not in config


@pytest.mark.parametrize("kind", ["heisenberg", "oscillator"])
@pytest.mark.parametrize("flag", [
    ("--translations", "3"), ("--subsample-seed", "0"), ("--allow-large",),
])
def test_extended_only_build_flags_exit_2_for_other_kinds(tmp_path, monkeypatch, kind, flag):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was built before its flags were checked")

    monkeypatch.setattr(srip.cli, "build_heisenberg_dictionary", refuse)
    monkeypatch.setattr(srip.cli, "build_oscillator_dictionary", refuse)
    out = tmp_path / "d.srip"
    assert _run("build", "--kind", kind, "--p", "5", *flag, "--out", str(out)) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p, extra", [
    ("5", ()), ("5", ("--allow-large",)), ("7", ("--allow-large",)),
])
def test_subsample_seed_without_translations_exits_2(tmp_path, monkeypatch, capsys, p, extra):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the dictionary was built before its flags were checked")

    monkeypatch.setattr(srip.cli, "build_extended_oscillator_dictionary", refuse)
    out = tmp_path / "eo.srip"
    code = _run("build", "--kind", "extended_oscillator", "--p", p, "--subsample-seed", "3",
                *extra, "--out", str(out))
    assert code == 2
    assert "--translations" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", [
    ("spectrum", ("--delta-exponent", "-2")), ("srip", ("--delta-exponent", "nan")),
    ("moments", ("--delta-exponent", "-3")), ("spectrum", ("--kmax", "0")),
    ("moments", ("--kmax", "-1")),
])
def test_campaign_flags_rejected_before_any_support_is_drawn(tmp_path, monkeypatch, command,
                                                             flag):
    import srip.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a support was drawn before the campaign flags were checked")

    monkeypatch.setattr(srip.spectra, "_keyed_draws", refuse)
    code = _run(command, "--kind", "heisenberg", "--p", "11", "--trials", "3", *flag,
                "--out-prefix", str(tmp_path / "run"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("command, name", [
    ("coherence", "d.srip"),
    ("spectrum", "d.eigenvalues.csv"),
    ("spectrum", "d.moments.csv"),
    ("srip", "d.srip.csv"),
    ("moments", "d.report.json"),
])
def test_output_onto_the_input_exits_2_and_keeps_the_input(tmp_path, monkeypatch, command, name):
    import srip.cli

    dict_file = tmp_path / name
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(dict_file)) == 0
    before = _sha(dict_file)

    def refuse(*args, **kwargs):
        raise AssertionError("the input was loaded before the output paths were checked")

    monkeypatch.setattr(srip.cli, "load_dictionary", refuse)
    monkeypatch.chdir(tmp_path)
    source = str(tmp_path / ".." / tmp_path.name / name)  # the same file by another path
    out = ("--out", name) if command == "coherence" else ("--out-prefix", "d")
    assert _run(command, "--in", source, *out) == 2
    assert _sha(dict_file) == before
    assert [f.name for f in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("seed, trials", [("-1", "3"), (str(2**128 - 2), "3")])
@pytest.mark.parametrize("source", [("--kind", "heisenberg", "--p", "7"), ("--in", "absent.srip")])
def test_seed_outside_the_key_range_exits_2_before_building_or_drawing(
    tmp_path, monkeypatch, capsys, source, seed, trials
):
    import srip.cli
    import srip.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("the campaign went ahead before its seed was checked")

    monkeypatch.setattr(srip.cli, "build_heisenberg_dictionary", refuse)
    monkeypatch.setattr(srip.cli, "load_dictionary", refuse)
    monkeypatch.setattr(srip.spectra, "_keyed_draws", refuse)
    code = _run("srip", *source, "--seed", seed, "--trials", trials,
                "--out-prefix", str(tmp_path / "s"))
    assert code == 2
    assert f"seed={seed}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "srip", "moments"])
@pytest.mark.parametrize("source, message", [
    (("--in", "h5.srip", "--p", "0"), "not both"),
    (("--kind", "heisenberg", "--p", "0"), "p = 0 is not prime"),
])
def test_p_zero_is_a_given_p(tmp_path, monkeypatch, capsys, command, source, message):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a dictionary was made although --p 0 was given")

    monkeypatch.setattr(srip.cli, "build_heisenberg_dictionary", refuse)
    monkeypatch.setattr(srip.cli, "load_dictionary", refuse)
    monkeypatch.chdir(tmp_path)
    assert _run(command, *source, "--trials", "3", "--out-prefix", "x") == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# srip coherence --in: the anchor row for a file that is its own build
# ---------------------------------------------------------------------------


def _spy_scans(monkeypatch):
    """Record the ``orbit`` marker of the dictionary of every ``_cross_blocks`` call."""
    import srip.dictionaries as dictionaries

    anchors = []
    real = dictionaries._cross_blocks

    def spy(D):
        anchors.append(D.orbit)
        return real(D)

    monkeypatch.setattr(dictionaries, "_cross_blocks", spy)
    return anchors


def _count_builds(monkeypatch):
    import srip.cli

    built = []
    for name in ("build_heisenberg_dictionary", "build_oscillator_dictionary",
                 "build_extended_oscillator_dictionary"):
        def counted(*args, _real=getattr(srip.cli, name), **kwargs):
            built.append(_real.__name__)
            return _real(*args, **kwargs)

        monkeypatch.setattr(srip.cli, name, counted)
    return built


@pytest.mark.parametrize("kind, p", [("heisenberg", 13), ("oscillator", 11),
                                     ("extended_oscillator", 5)])
def test_saved_orbit_file_takes_the_anchor_route(tmp_path, monkeypatch, capsys, kind, p):
    from dataclasses import asdict

    from srip.cli import _build
    from srip.dictionaries import coherence_report

    path, out = tmp_path / "d.srip", tmp_path / "d.json"
    assert _run("build", "--kind", kind, "--p", str(p), "--out", str(path)) == 0
    data = path.read_bytes()
    capsys.readouterr()
    anchors = _spy_scans(monkeypatch)
    assert _run("coherence", "--in", str(path), "--out", str(out)) == 0
    assert anchors and set(anchors) == {True}
    assert "anchor scan -> pass" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["report"] == asdict(coherence_report(_build(kind, p)))
    assert payload["report"]["scan"] == "anchor"
    assert path.read_bytes() == data


def test_perturbed_orbit_file_loads_and_takes_the_pairwise_route(tmp_path, monkeypatch):
    from oracles import pairwise_coherence
    from srip.dictionaries import load_dictionary

    path, out = tmp_path / "o7.srip", tmp_path / "o7.json"
    assert _run("build", "--kind", "oscillator", "--p", "7", "--out", str(path)) == 0
    data = bytearray(path.read_bytes())
    # the real part of the first entry of the last record, moved by 1e-12
    at = len(data) - 16 * 7 * 7
    (value,) = struct.unpack_from("<d", data, at)
    struct.pack_into("<d", data, at, value + 1e-12)
    path.write_bytes(bytes(data))
    anchors = _spy_scans(monkeypatch)
    built = _count_builds(monkeypatch)
    assert _run("coherence", "--in", str(path), "--out", str(out)) == 0
    assert built == ["build_oscillator_dictionary"]  # one build more than the scan
    assert anchors[-1] is False
    report = json.loads(out.read_text())["report"]
    assert report["scan"] == "pairwise"
    pairs, worst, least, counts = pairwise_coherence(load_dictionary(path))
    assert report["cross_pairs_checked"] == pairs
    assert report["histogram_counts"] == counts
    assert abs(report["max_scaled_coherence"] - worst) <= 1e-14


def test_oversized_header_exits_3_before_any_build(tmp_path, monkeypatch, capsys):
    import srip.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a dictionary was built for a header the loader refuses")

    for name in ("build_heisenberg_dictionary", "build_oscillator_dictionary",
                 "build_extended_oscillator_dictionary"):
        monkeypatch.setattr(srip.cli, name, refuse)
    path = tmp_path / "h99991.srip"
    path.write_bytes(b"SRIPDCT1" + struct.pack("<IIBId", 1, 99991, 0, 99992, 1.0) + bytes(64))
    assert _run("coherence", "--in", str(path)) == 3
    assert "declared basis count exceeds the file size" in capsys.readouterr().err


def test_subsampled_and_hand_made_files_take_the_pairwise_route(tmp_path, monkeypatch, dh7):
    from srip.dictionaries import Dictionary, save_dictionary

    sub = tmp_path / "e7.srip"
    assert _run("build", "--kind", "extended_oscillator", "--p", "7", "--translations", "3",
                "--out", str(sub)) == 0
    hand = tmp_path / "h7.srip"
    save_dictionary(hand, Dictionary(7, "heisenberg", 1.0, dh7.labels[::-1], dh7.stack[::-1]))
    anchors = _spy_scans(monkeypatch)
    built = _count_builds(monkeypatch)
    for path, builds in ((sub, []), (hand, ["build_heisenberg_dictionary"])):
        out = tmp_path / "report.json"
        anchors.clear()
        built.clear()
        assert _run("coherence", "--in", str(path), "--out", str(out)) == 0
        assert built == builds  # a subsample is never built: its count is not the full one
        assert anchors[-1] is False
        assert json.loads(out.read_text())["report"]["scan"] == "pairwise"


def test_orbit_file_with_a_trailing_byte_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "h5.srip"
    assert _run("build", "--kind", "heisenberg", "--p", "5", "--out", str(path)) == 0
    path.write_bytes(path.read_bytes() + b"\0")
    built = _count_builds(monkeypatch)
    assert _run("coherence", "--in", str(path)) == 3
    assert built == ["build_heisenberg_dictionary"]
    assert "trailing bytes after the last basis" in capsys.readouterr().err
