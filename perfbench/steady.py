"""Steadiness check: repeat every workload and report the spread of each metric.

    python3 perfbench/steady.py --runs 10 [--traced]

Each pass runs every workload of BENCHMARK.json once, each in its own
process, for the benchmark's `run_seconds`, with a new seed; the
workload order is reversed on every other pass.  A run that fails stops
the check.  For each end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median), and
marks with "!" a spread above the metric's bound in BENCHMARK.json.  It
also prints the same for the median wall time of a round, which is not
gated.
With --traced every run is repeated with --trace 1, and the tracing
overhead (traced minus untraced CPU time per round) is printed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(lines[-1])
    wall = re.search(r"round wall time .*median ([0-9.]+) s", proc.stdout)
    result["round_wall_s"] = float(wall.group(1)) if wall else None
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles, and the interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [] for w in names}
    traced = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in (names if i % 2 == 0 else names[::-1]):
            results[w].append(run_once(w, seed, seconds, 0))
            if args.traced:
                traced[w].append(run_once(w, seed, seconds, 1))
            print(f"pass {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in names:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            mark = " !" if s > bound else ""
            print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.3f}{bound:>7.2f}{mark}")
        med, q1, q3, s = spread([r["round_wall_s"] for r in runs])
        print(f"  {'round wall s':<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.3f}"
              f"{'-':>7}  (not gated)")
        if args.traced:
            cpu = statistics.median(r["metrics"]["cpu_s"]["value"] for r in runs)
            t_cpu = statistics.median(r["metrics"]["trace.round_cpu_s"]["value"]
                                      for r in traced[w])
            t_wall = statistics.median(r["metrics"]["trace.round_wall_s"]["value"]
                                       for r in traced[w])
            print(f"  tracing overhead: {t_cpu - cpu:+.4f} CPU s per round "
                  f"({(t_cpu - cpu) / cpu:+.1%} of cpu_s {cpu:.4g} s); "
                  f"traced round wall time {t_wall:.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
