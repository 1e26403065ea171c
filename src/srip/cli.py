"""Command-line front end.

Exactly one subcommand runs per invocation::

    srip build --kind heisenberg --p 11 --out d.srip
    srip coherence --in d.srip
    srip spectrum --kind heisenberg --p 31 --out-prefix runs/h31
    srip srip --in d.srip --trials 200 --out-prefix runs/tails
    srip moments --in d.srip --kmax 6 --out-prefix runs/mom
    srip paths-verify --k 8 --out-prefix runs/classes

Exit status: 0 on success, 2 on validation errors (nothing is written),
3 on contract violations such as a coherence bound failure.  Output files
are written atomically (temp file + rename) and input files are never
modified.  Every JSON report echoes the config, the seed, the package
version, and the wall-clock duration; rerunning with the same config and
seed reproduces every payload byte for byte (durations aside).
``--threads`` is accepted for compatibility, echoed in the config, and
has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .dictionaries import (
    Dictionary,
    KIND_CODES,
    build_extended_oscillator_dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
    coherence_report,
    load_dictionary,
    save_dictionary,
    write_atomic,
)
from .errors import SripError
from .field import PrimeField
from .paths import (
    enumerate_path_classes,
    ladder_support_sizes,
    tree_to_dyck,
    trajectory_table,
    within_budget,
)
from .spectra import (
    campaign_size,
    catalan_number,
    check_delta_exponent,
    check_kmax,
    run_spectrum,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONTRACT = 3


@dataclass
class RunConfig:
    """Echo of one run's parameters, embedded in every JSON report."""

    command: str
    p: int | None = None
    kind: str | None = None
    input: str | None = None
    epsilon: float = 0.3
    delta_exponent: float = 0.5
    kmax: int = 6
    trials: int = 200
    seed: int = 42
    threads: int | None = None


def _json_payload(config: RunConfig, report: dict, started: float) -> str:
    payload = {
        "schema": 1,
        "version": __version__,
        "config": asdict(config),
        "report": report,
        "duration_seconds": time.perf_counter() - started,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_csv(path: str, header: str, rows) -> None:
    write_atomic(path, "\n".join([header, *rows]) + "\n")


def _build(kind: str, p: int, **extended) -> Dictionary:
    """Build a dictionary of ``kind``; ``extended`` goes to the extended builder only."""
    field = PrimeField(p)  # validates primality before any work
    if kind == "heisenberg":
        return build_heisenberg_dictionary(field)
    if kind == "oscillator":
        return build_oscillator_dictionary(field)
    return build_extended_oscillator_dictionary(field, **extended)


_THREADS_HELP = "accepted for compatibility; has no effect"


def _add_dict_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="input", help="dictionary file produced by `build`")
    sub.add_argument("--kind", choices=sorted(KIND_CODES), help="build this kind in memory")
    sub.add_argument("--p", type=int, help="prime (required with --kind)")


def _add_campaign_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=0.3)
    sub.add_argument("--delta-exponent", type=float, default=0.5)
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    sub.add_argument("--out-prefix", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a dictionary and save it")
    b.add_argument("--kind", choices=sorted(KIND_CODES), required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--translations", type=int, default=None,
                   help="extended dictionary: keep this many seeded translations")
    b.add_argument("--subsample-seed", type=int, default=0)
    b.add_argument("--allow-large", action="store_true",
                   help="permit the full extended dictionary above p = 5")
    b.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    c = subs.add_parser("coherence", help="scan all cross-basis pairs of a dictionary")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out", help="optional JSON report path")

    s = subs.add_parser("spectrum", help="full campaign: tails, moments, pooled spectrum")
    _add_dict_source(s)
    _add_campaign_flags(s)
    s.add_argument("--kmax", type=int, default=6)

    r = subs.add_parser("srip", help="tail frequencies of ||G - I|| only")
    _add_dict_source(r)
    _add_campaign_flags(r)

    m = subs.add_parser("moments", help="spectral moment means and variances")
    _add_dict_source(m)
    _add_campaign_flags(m)
    m.add_argument("--kmax", type=int, default=6)

    pv = subs.add_parser("paths-verify", help="path-class tables and exact estimates")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--out-prefix", default=None)
    pv.add_argument("--ladder", default=None,
                    help="comma-separated primes for exact estimate trajectories")
    pv.add_argument("--epsilon", type=float, default=0.3)
    pv.add_argument("--fixed-n", type=int, default=None,
                    help="hold this support size fixed across the ladder normalizations")
    pv.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    return parser


def _validate_dict_source(args) -> None:
    if getattr(args, "input", None):
        if args.kind or args.p:
            raise ValueError("pass either --in or (--kind, --p), not both")
        return
    if not (args.kind and args.p):
        raise ValueError("either --in or both --kind and --p are required")
    PrimeField(args.p)  # validates primality and p >= 5


def _cmd_build(args) -> int:
    D = _build(
        args.kind,
        args.p,
        translation_subsample=args.translations,
        subsample_seed=args.subsample_seed,
        allow_large=args.allow_large,
    )
    save_dictionary(args.out, D)
    print(f"wrote {args.kind} dictionary p={args.p}: {D.basis_count} bases, "
          f"{D.atom_count} atoms -> {args.out}")
    return EXIT_OK


def _cmd_coherence(args, started: float) -> int:
    D = load_dictionary(args.input)
    report = coherence_report(D)
    config = RunConfig(command="coherence", p=D.p, kind=D.kind, input=args.input)
    if args.out:
        write_atomic(args.out, _json_payload(config, asdict(report), started))
    status = "pass (vacuous)" if report.vacuous else ("pass" if report.passed else "FAIL")
    print(f"{D.kind} p={D.p}: max sqrt(p)*coherence = {report.max_scaled_coherence:.9f} "
          f"(mu = {report.mu}), within-basis deviation {report.max_within_basis_deviation:.3e} "
          f"-> {status}")
    return EXIT_OK if report.passed else EXIT_CONTRACT


def _campaign_config(args, command: str) -> RunConfig:
    return RunConfig(
        command=command,
        p=args.p,
        kind=args.kind,
        input=args.input,
        epsilon=args.epsilon,
        delta_exponent=args.delta_exponent,
        kmax=getattr(args, "kmax", 6),
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
    )


def _run_campaign(args, command: str, started: float) -> int:
    _validate_dict_source(args)
    config = _campaign_config(args, command)
    check_kmax(config.kmax)  # fail before the load or the build
    check_delta_exponent(config.delta_exponent)
    if config.input:
        D = load_dictionary(config.input)
        config.p = D.p
        config.kind = D.kind
    else:
        campaign_size(config.p, args.epsilon, args.trials)  # fail before the build
        D = _build(config.kind, config.p)
    report = run_spectrum(
        D,
        epsilon=args.epsilon,
        kmax=config.kmax,
        trials=args.trials,
        seed=args.seed,
        delta_exponent=args.delta_exponent,
    )
    prefix = args.out_prefix
    if command == "spectrum":
        _write_csv(f"{prefix}.eigenvalues.csv", "lambda",
                   [repr(float(x)) for x in report.eigenvalues])
    if command in ("spectrum", "moments"):
        _write_csv(f"{prefix}.moments.csv", "k,mean,variance,semicircle_moment",
                   [f"{m.k},{m.mean!r},{m.variance!r},{m.semicircle!r}" for m in report.moments])
    if command in ("spectrum", "srip"):
        _write_csv(f"{prefix}.srip.csv", "threshold_kind,threshold,frequency",
                   [f"{t.kind},{t.threshold!r},{t.frequency!r}" for t in report.tails])
    write_atomic(f"{prefix}.report.json", _json_payload(config, report.to_dict(), started))
    print(f"{command} done: p={D.p} n={report.n} trials={report.trials} seed={report.seed} "
          f"ks_pooled={report.ks_pooled:.4f}")
    return EXIT_OK


def _cmd_paths_verify(args, started: float) -> int:
    if not 2 <= args.k <= 10:
        raise ValueError(f"--k must be between 2 and 10, got {args.k}")
    fields = []
    if args.ladder:  # check the whole ladder before any write or build
        fields = [PrimeField(int(x)) for x in args.ladder.split(",")]
        ladder_support_sizes([f.p for f in fields], args.epsilon, args.fixed_n)
    classes = enumerate_path_classes(args.k)
    trees = [pc for pc in classes if pc.is_tree]
    rows = []
    for pc in classes:
        dyck = "".join("+" if d == 1 else "-" for d in tree_to_dyck(pc)) if pc.is_tree else ""
        rows.append(f"{pc},{pc.k},{pc.vertex_count},{int(pc.is_tree)},{dyck}")
    if args.out_prefix:
        _write_csv(f"{args.out_prefix}.classes.csv", "class,k,vertices,is_tree,dyck", rows)

    expected = catalan_number(args.k // 2) if args.k % 2 == 0 else 0
    print(f"k={args.k}: {len(classes)} classes, {len(trees)} trees "
          f"(catalan count {expected}) -> {'ok' if len(trees) == expected else 'MISMATCH'}")

    if args.ladder:
        dicts = {f.p: build_heisenberg_dictionary(f) for f in fields}
        usable = [
            pc for pc in classes
            if all(within_budget(pc.vertex_count, d.atom_count) for d in dicts.values())
        ]
        table = trajectory_table(dicts, usable, epsilon=args.epsilon, fixed_n=args.fixed_n)
        if args.out_prefix:
            _write_csv(
                f"{args.out_prefix}.estimates.csv", "class,p,n_tau_Ew_real,n_tau_Ew_imag",
                [f"{row.path_class},{pt.p},{pt.value.real!r},{pt.value.imag!r}"
                 for row in table for pt in row.points],
            )
        for row in table:
            trend = "->1" if row.is_tree else "->0"
            print(f"  {row.path_class}: tree={row.is_tree} {trend} "
                  f"final={row.final_value.real:.6f}{row.final_value.imag:+.2e}i "
                  f"converging={row.converging}")
    if len(trees) != expected:
        return EXIT_CONTRACT
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "coherence":
            return _cmd_coherence(args, started)
        if args.command in ("spectrum", "srip", "moments"):
            return _run_campaign(args, args.command, started)
        if args.command == "paths-verify":
            return _cmd_paths_verify(args, started)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SripError as exc:
        print(f"contract violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
