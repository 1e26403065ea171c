"""The reproduction run, on a shortened list of dictionaries."""

import csv
import importlib.util
from pathlib import Path

import pytest

from srip.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
TRIALS = 20
HEADERS = {
    "coherence.csv": "kind,p,bases,atoms,pairs,mu,max_scaled,min_scaled,margin",
    "srip.csv": "kind,p,n,threshold_kind,threshold,frequency",
    "semicircle.csv": "kind,p,k,n,mean,stderr,exact,semicircle_moment,ks_pooled",
}


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    reproduce = _load_script()
    dirs = [tmp_path_factory.mktemp("run1"), tmp_path_factory.mktemp("run2")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reproduce, "DICTIONARIES", [
            (reproduce.build_heisenberg_dictionary, 5, {}),
            (reproduce.build_heisenberg_dictionary, 7, {}),
            (reproduce.build_oscillator_dictionary, 5, {}),
        ])
        mp.setattr(reproduce, "TRIALS", TRIALS)
        for d in dirs:
            assert reproduce.main([str(d)]) == 0
    return reproduce, dirs


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_reruns_are_byte_identical(runs):
    _, (first, second) = runs
    for name in HEADERS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_headers_are_as_documented(runs):
    _, (first, _) = runs
    assert sorted(p.name for p in first.iterdir()) == sorted(HEADERS)
    for name, header in HEADERS.items():
        assert (first / name).read_text().splitlines()[0] == header


def test_coherence_rows(runs):
    _, (first, _) = runs
    rows = _rows(first / "coherence.csv")
    assert [(r["kind"], r["p"]) for r in rows] == [
        ("heisenberg", "5"), ("heisenberg", "7"), ("oscillator", "5")]
    for r in rows:
        assert float(r["margin"]) == float(r["mu"]) - float(r["max_scaled"])
        if r["kind"] == "heisenberg":
            assert abs(float(r["max_scaled"]) - 1.0) <= 1e-9


def test_semicircle_rows_fill_exact_moments_within_budget(runs):
    _, (first, _) = runs
    rows = _rows(first / "semicircle.csv")
    assert len(rows) == 3 * 6
    for r in rows:
        assert (r["exact"] != "") == (int(r["k"]) <= 4)  # p = 5 and 7 fit the k <= 4 budget
        assert float(r["stderr"]) >= 0.0


def test_srip_rows_match_the_cli(runs, tmp_path):
    reproduce, (first, _) = runs
    prefix = tmp_path / "h7"
    code = main([
        "srip", "--kind", "heisenberg", "--p", "7", "--epsilon", str(reproduce.EPSILON),
        "--trials", str(TRIALS), "--seed", str(reproduce.SEED), "--out-prefix", str(prefix),
    ])
    assert code == 0
    cli_rows = (tmp_path / "h7.srip.csv").read_text().splitlines()[1:]
    ours = [line.split(",", 3) for line in (first / "srip.csv").read_text().splitlines()[1:]]
    assert [rest for kind, p, _, rest in ours if (kind, p) == ("heisenberg", "7")] == cli_rows
