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


def test_threads_flag_and_env(tmp_path, monkeypatch):
    code = _run(
        "moments", "--kind", "heisenberg", "--p", "7", "--trials", "10",
        "--threads", "2", "--out-prefix", str(tmp_path / "t2"),
    )
    assert code == 0
    monkeypatch.setenv("SRIP_THREADS", "2")
    code = _run(
        "moments", "--kind", "heisenberg", "--p", "7", "--trials", "10",
        "--out-prefix", str(tmp_path / "tenv"),
    )
    assert code == 0
    assert _sha(tmp_path / "t2.moments.csv") == _sha(tmp_path / "tenv.moments.csv")


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

    bad = Dictionary(5, "heisenberg", 1.0, [dh5.bases[0], dh5.bases[0]])
    path = tmp_path / "bad.srip"
    save_dictionary(path, bad)
    assert _run("coherence", "--in", str(path)) == 3


def test_paths_verify_out_of_range_k_exits_2(tmp_path):
    assert _run("paths-verify", "--k", "11") == 2
    assert _run("paths-verify", "--k", "1") == 2


@pytest.mark.parametrize("argv", [
    ("--ladder", "5,7", "--fixed-n", "0"),
    ("--ladder", "5,7", "--fixed-n", "-2"),
    ("--ladder", "5,7", "--epsilon", "1.5"),
    ("--ladder", "5,9"),
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
    from srip.dictionaries import Dictionary, save_dictionary

    empty = tmp_path / "empty.srip"
    save_dictionary(empty, Dictionary(5, "heisenberg", 1.0, []))
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
    code = _run(command, *source, "--kmax", "0", "--trials", "5",
                "--out-prefix", str(tmp_path / "k0"))
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
        assert "threads" in config
