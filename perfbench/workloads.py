"""The three workloads: set-up, one round of operations, and output checks.

A round runs a fixed list of operations; each belongs to stage 1 or 2,
whose summed CPU times are the `stage1_cpu_s` and `stage2_cpu_s`
metrics.  The CLI is driven in-process through `srip.cli.main`, looked up
at call time so the span recorder's rebinding takes effect.
"""

from __future__ import annotations

import io
import random
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checks


class Op:
    """One operation of a round; `run` returns True on success."""

    def __init__(self, key: str, stage: int, run):
        self.key = key
        self.stage = stage
        self.run = run


def cpu_seconds() -> float:
    """CPU time so far of this process and its ended children, every thread included."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_cli(argv: list[str]) -> bool:
    import srip.cli

    with redirect_stdout(io.StringIO()):
        return srip.cli.main(argv) == 0


class Construct:
    """srip build + srip coherence for heisenberg 61, oscillator 17, extended 7."""

    name = "construct"
    TRANSLATIONS = 8
    SPECS = [("heisenberg", 61), ("oscillator", 17), ("extended_oscillator", 7)]

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def _build_argv(self, kind: str, p: int, out: Path, translations: int) -> list[str]:
        argv = ["build", "--kind", kind, "--p", str(p), "--out", str(out)]
        if kind == "extended_oscillator":
            argv += ["--translations", str(translations), "--subsample-seed", str(self.seed)]
        return argv

    def setup(self) -> None:
        """Warm-up: every build and coherence path once at p = 5."""
        warm = self.work / "warm"
        warm.mkdir(parents=True, exist_ok=True)
        for kind, _ in self.SPECS:
            out = warm / f"{kind}.srip"
            ok = run_cli(self._build_argv(kind, 5, out, 2))
            ok = ok and run_cli(["coherence", "--in", str(out), "--out", str(out) + ".json"])
            if not ok:
                raise RuntimeError(f"warm-up of {kind} at p = 5 failed")

    def ops(self) -> list[Op]:
        out = []
        for kind, p in self.SPECS:
            path = self.work / f"{kind}{p}.srip"
            report = self.work / f"{kind}{p}.coherence.json"
            out.append(Op(f"build {kind} {p}", 1,
                          lambda a=self._build_argv(kind, p, path, self.TRANSLATIONS): run_cli(a)))
            out.append(Op(f"coherence {kind} {p}", 2,
                          lambda a=["coherence", "--in", str(path), "--out", str(report)]:
                          run_cli(a)))
        return out

    def outputs(self) -> list[Path]:
        """The files one round's commands write."""
        return [self.work / f"{kind}{p}{ext}" for kind, p in self.SPECS
                for ext in (".srip", ".coherence.json")]

    def check(self) -> dict[str, list[str]]:
        problems = {}
        for kind, p in self.SPECS:
            path = self.work / f"{kind}{p}.srip"
            found = checks.check_dictionary(path, kind, p, self.TRANSLATIONS,
                                            self.work / f"{kind}{p}.coherence.json")
            for command, items in found.items():
                problems[f"{command} {kind} {p}"] = items
        return problems


class Campaign:
    """srip spectrum and srip srip at one seed on heisenberg 31 and oscillator 13."""

    name = "campaign"
    TRIALS = 100
    EPSILON = 0.3
    DELTA = 0.5
    SPECS = [("heisenberg", 31), ("oscillator", 13)]

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def _dict(self, kind: str, p: int) -> Path:
        return self.work / f"{kind}{p}.srip"

    def setup(self) -> None:
        """Build both input files with `srip build`."""
        self.work.mkdir(parents=True, exist_ok=True)
        for kind, p in self.SPECS:
            if not run_cli(["build", "--kind", kind, "--p", str(p),
                            "--out", str(self._dict(kind, p))]):
                raise RuntimeError(f"srip build of {kind} p={p} failed")

    OUTPUTS = {"spectrum": ("eigenvalues.csv", "moments.csv", "srip.csv", "report.json"),
               "srip": ("srip.csv", "report.json")}

    def ops(self) -> list[Op]:
        out = []
        for kind, p in self.SPECS:
            for command, stage in (("spectrum", 1), ("srip", 2)):
                prefix = self.work / f"{command}-{kind}{p}"
                argv = [command, "--in", str(self._dict(kind, p)), "--trials", str(self.TRIALS),
                        "--seed", str(self.seed), "--epsilon", str(self.EPSILON),
                        "--delta-exponent", str(self.DELTA), "--out-prefix", str(prefix)]
                out.append(Op(f"{command} {kind} {p}", stage, lambda a=argv: run_cli(a)))
        return out

    def outputs(self) -> list[Path]:
        """The files one round's commands write."""
        return [self.work / f"{command}-{kind}{p}.{f}" for kind, p in self.SPECS
                for command, files in self.OUTPUTS.items() for f in files]

    def check(self) -> dict[str, list[str]]:
        from srip.spectra import sample_support

        problems = {}
        for kind, p in self.SPECS:
            found = checks.check_campaign(
                self._dict(kind, p), self.work / f"spectrum-{kind}{p}",
                self.work / f"srip-{kind}{p}", self.TRIALS, self.seed, self.EPSILON,
                self.DELTA, sample_support)
            for command, items in found.items():
                problems[f"{command} {kind} {p}"] = items
        return problems


class Exact:
    """exact_spectral_moment k = 2..4 on seven dictionaries, then srip paths-verify."""

    name = "exact"
    HEISENBERG_PRIMES = (5, 7, 11, 13, 17, 19)
    OSCILLATOR_PRIMES = (7,)
    EXHAUSTIVE = {("heisenberg", 5), ("heisenberg", 7), ("oscillator", 7)}
    KS = (2, 3, 4)
    PV_K = 6
    PV_LADDER = (5, 7, 11, 13)
    PV_FIXED_N = 3

    def __init__(self, work: Path, seed: int):
        self.work = work
        rng = random.Random(seed)
        self.specs = [("heisenberg", p) for p in self.HEISENBERG_PRIMES]
        self.specs += [("oscillator", p) for p in self.OSCILLATOR_PRIMES]
        # n = floor(p^0.7), moved by -1, 0 or +1 with the seed above p = 7.  The
        # exact sums skip classes with more vertices than n, so n stays >= 4
        # there, and at 3 where the exhaustive oracle runs, to keep the work fixed.
        self.n = {}
        for spec in self.specs:
            n = checks.support_size(spec[1], 0.3)
            self.n[spec] = n if spec in self.EXHAUSTIVE else n + rng.choice((-1, 0, 1))
        self.dicts = {}
        self.values = {}

    def setup(self) -> None:
        """Build the seven dictionaries in memory with the library's build functions."""
        from srip.dictionaries import build_heisenberg_dictionary, build_oscillator_dictionary
        from srip.field import PrimeField

        build = {"heisenberg": build_heisenberg_dictionary,
                 "oscillator": build_oscillator_dictionary}
        self.dicts = {spec: build[spec[0]](PrimeField(spec[1])) for spec in self.specs}

    def _moment(self, spec, k: int) -> bool:
        import srip.paths

        self.values[spec, k] = srip.paths.exact_spectral_moment(self.dicts[spec], self.n[spec], k)
        return True

    def ops(self) -> list[Op]:
        out = [Op(f"moment {kind} {p} k={k}", 1, lambda s=(kind, p), k=k: self._moment(s, k))
               for kind, p in self.specs for k in self.KS]
        prefix = self.work / "paths"
        argv = ["paths-verify", "--k", str(self.PV_K),
                "--ladder", ",".join(map(str, self.PV_LADDER)),
                "--fixed-n", str(self.PV_FIXED_N), "--out-prefix", str(prefix)]
        out.append(Op("paths-verify", 2, lambda: run_cli(argv)))
        return out

    def outputs(self) -> list[Path]:
        """The files one round's commands write."""
        return [self.work / f"paths.{f}" for f in ("classes.csv", "estimates.csv")]

    def check(self) -> dict[str, list[str]]:
        problems = {}
        for spec in self.specs:
            D = self.dicts[spec]
            p, n, nb = spec[1], self.n[spec], D.basis_count
            N = nb * p
            want = {2: checks.m2_closed_form(p, n, nb, N), 3: checks.m3_closed_form(p, n, nb, N)}
            if spec in self.EXHAUSTIVE:
                brute = checks.exhaustive_moments(D.atoms_matrix, p, n, max(self.KS))
                want.update({k: brute[k - 1] for k in self.KS})
            for k in self.KS:
                got = self.values.get((spec, k))
                if k in want and (got is None or abs(got - want[k]) > checks.TOL):
                    problems[f"moment {spec[0]} {p} k={k}"] = [
                        f"{spec[0]} p={p} n={n}: m{k} = {got}, expected {want[k]}"]
        problems["paths-verify"] = checks.check_paths_verify(
            self.work / "paths", self.PV_K, list(self.PV_LADDER))
        return problems


WORKLOADS = {w.name: w for w in (Construct, Campaign, Exact)}


def run_round(ops: list[Op]) -> tuple[dict[int, float], dict[str, bool]]:
    """Run every operation once; returns stage CPU times and each operation's success."""
    stages = {1: 0.0, 2: 0.0}
    ok = {}
    for op in ops:
        c0 = cpu_seconds()
        try:
            ok[op.key] = bool(op.run())
        except Exception as exc:  # an operation that raises counts as failed
            print(f"{op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok[op.key] = False
        stages[op.stage] += cpu_seconds() - c0
    return stages, ok
