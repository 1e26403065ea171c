"""The one-BLAS-thread default of ``import srip``, and outputs that do not depend on it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import srip

SRC = str(Path(srip.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROC = Path("/proc/self/task")

# imports srip before numpy, as the srip command does, then forms one product
# large enough for OpenBLAS to thread and prints what the process then holds
PROBE = """
import os
import srip.cli
import numpy as np
a = np.ones((256, 256), dtype=complex)
a @ a
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"), tasks)
"""


def _python(code, cwd=None, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _probe(**env_vars):
    blas, omp, tasks = _python(PROBE, **env_vars).split()
    return blas, omp, int(tasks)


def test_one_blas_thread_when_no_thread_variable_is_set():
    blas, omp, tasks = _probe()
    assert blas == "1"
    assert omp == "None"
    if PROC.is_dir():
        assert tasks == 1


@pytest.mark.parametrize("var, expected", [("OPENBLAS_NUM_THREADS", ("2", "None")),
                                           ("OMP_NUM_THREADS", ("None", "2"))])
def test_a_thread_variable_set_by_the_user_is_honoured(var, expected):
    blas, omp, tasks = _probe(**{var: "2"})
    assert (blas, omp) == expected
    if PROC.is_dir() and len(os.sched_getaffinity(0)) > 1:
        assert tasks > 1


# the same relative paths in each directory, so the `input` echoes agree too;
# the ladder stops at 7 because at k = 8 exact estimates on the rungs p = 11
# and 13 still differ between thread counts in the last digits, through the
# S2 product of the four-block cores (k = 6, which forms no S2 on the built
# ladder, is checked up to p = 13 below); the `big` campaign solves supports
# of n = 63, past the n = 25 of the reproduction
RUNS = """
from srip.cli import main
for argv in [
    "build --kind heisenberg --p 13 --out h13.srip",
    "coherence --in h13.srip --out h13.json",
    "build --kind oscillator --p 13 --out o13.srip",
    "coherence --in o13.srip --out o13.json",
    "build --kind extended_oscillator --p 7 --translations 8 --out e7.srip",
    "coherence --in e7.srip --out e7.json",
    "spectrum --in h13.srip --trials 20 --out-prefix spec",
    "spectrum --kind heisenberg --p 101 --epsilon 0.1 --trials 30 --out-prefix big",
    "paths-verify --k 6 --ladder 5,7 --fixed-n 3 --out-prefix pv",
]:
    assert main(argv.split()) == 0, argv
"""


def test_outputs_do_not_depend_on_the_thread_count(tmp_path):
    dirs = {}
    for threads in ("1", "2"):
        dirs[threads] = tmp_path / f"threads{threads}"
        dirs[threads].mkdir()
        _python(RUNS, cwd=dirs[threads], OPENBLAS_NUM_THREADS=threads)

    def content(path):
        data = path.read_bytes()
        if path.suffix == ".json":
            return [ln for ln in data.splitlines() if b'"duration_seconds"' not in ln]
        return data

    names = sorted(p.name for p in dirs["1"].iterdir())
    assert names == sorted(p.name for p in dirs["2"].iterdir())
    assert {"h13.srip", "o13.srip", "e7.srip", "h13.json", "o13.json", "e7.json",
            "spec.eigenvalues.csv", "spec.report.json", "pv.classes.csv",
            "pv.estimates.csv"} <= set(names)
    for name in names:
        assert content(dirs["1"] / name) == content(dirs["2"] / name), name


def test_k6_estimates_do_not_depend_on_the_thread_count(tmp_path):
    # every k = 6 core of the built ladder comes from products whose inner
    # dimension is p or one panel of the anchor row, never all N atoms
    argv = "paths-verify --k 6 --ladder 5,7,11,13 --fixed-n 3 --out-prefix pv"
    run = f"from srip.cli import main\nassert main({argv.split()!r}) == 0"
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        _python(run, cwd=cwd, OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = [(cwd / f"pv.{name}.csv").read_bytes()
                            for name in ("classes", "estimates")]
    assert outputs["1"] == outputs["2"]


def test_a_zero_weight_class_converges_on_one_and_two_threads():
    # 1-2-3-1-2-3-1 has exact weight 0 on heisenberg dictionaries, so its
    # estimates are rounding noise whose last step may go either way
    run = ("from srip.cli import main\n"
           "assert main(['paths-verify', '--k', '6', '--ladder', '5,7', '--fixed-n', '3']) == 0")
    for threads in ("1", "2"):
        out = _python(run, OPENBLAS_NUM_THREADS=threads)
        (line,) = [ln for ln in out.splitlines() if ln.lstrip().startswith("1-2-3-1-2-3-1:")]
        assert line.endswith("converging=True"), (threads, line)
