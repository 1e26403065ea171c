"""Benchmark of srip: one workload per invocation.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout, importing srip from ./src.  The
set-up (a cold import of srip in a fresh interpreter, then the workload's
own preparation) runs three times and the median of its CPU time is
`setup_s`; whole rounds of the workload's operations repeat until
`--seconds` have passed.  Every output is then checked against
perfbench/checks.py.  An untraced run prints the median wall time of a
round on the line before the result; it is not one of the metrics.  With `--trace 1`
the set-up runs once and the srip functions are wrapped by the span
recorder; the per-layer metrics then cover one set-up plus one average
round.  The last line of standard output is the JSON result.  The exit
code is non-zero when an operation or a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "stage1_cpu_s": "s",
    "stage2_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def cold_import() -> None:
    """Import srip in a fresh interpreter, as every `srip` command does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import srip.cli"], env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "srip" / "__init__.py").is_file():
        print(f"error: no srip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import srip.cli  # noqa: F401  (imports every srip module the recorder wraps)
    from workloads import WORKLOADS, cpu_seconds, run_round

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    recorder = None
    if args.trace:
        from spans import Recorder, per_layer_units

        recorder = Recorder()
        recorder.install()
    try:
        setup_times = []
        for _ in range(1 if recorder else SETUP_REPEATS):
            c0 = cpu_seconds()
            cold_import()
            workload.setup()
            setup_times.append(cpu_seconds() - c0)
        if recorder:
            recorder.phase = "round"

        ops = workload.ops()
        walls, cpus, stage1, stage2 = [], [], [], []
        failed_ops: dict[str, int] = {}
        start = time.perf_counter()
        while True:
            t0, c0 = time.perf_counter(), cpu_seconds()
            stages, ok = run_round(ops)
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - c0)
            stage1.append(stages[1])
            stage2.append(stages[2])
            for key, good in ok.items():
                failed_ops[key] = failed_ops.get(key, 0) + (not good)
            if time.perf_counter() - start >= args.seconds:
                break
        rounds = len(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder:
            recorder.uninstall()

        # outputs are the same in every round, so a check that fails on the
        # last round's outputs fails its operation in every round
        try:
            found = workload.check()
        except Exception:  # an unreadable output fails every operation
            traceback.print_exc()
            found = {key: ["outputs could not be checked"] for key in failed_ops}
        for key, problems in found.items():
            if problems and not failed_ops.get(key):
                failed_ops[key] = rounds
            for problem in problems:
                print(f"check failed: {key}: {problem}", file=sys.stderr)

        if recorder:
            OUT.mkdir(parents=True, exist_ok=True)
            recorder.write(str(OUT / f"{args.workload}.spans.json"))
            values = recorder.metrics(rounds)
            values["cli.bytes_written"] = float(sum(
                f.stat().st_size for f in workload.outputs() if f.exists()))
            values["trace.round_wall_s"] = statistics.median(walls)
            values["trace.round_cpu_s"] = statistics.median(cpus)
            metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(cpus),
                "stage1_cpu_s": statistics.median(stage1),
                "stage2_cpu_s": statistics.median(stage2),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            print(f"round wall time (not gated): median {statistics.median(walls):.4f} s "
                  f"over {rounds} rounds")
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(failed_ops.values())
    result = {"correct": failed == 0, "attempted": rounds * len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
