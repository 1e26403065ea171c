"""Command-line front end.

Exactly one subcommand runs per invocation::

    srip build --kind heisenberg --p 11 --out d.srip
    srip coherence --in d.srip
    srip spectrum --kind heisenberg --p 31 --out-prefix runs/h31
    srip srip --in d.srip --trials 200 --out-prefix runs/tails
    srip moments --in d.srip --kmax 6 --out-prefix runs/mom
    srip paths-verify --k 8 --out-prefix runs/classes

Exit status: 0 on success, 2 on validation errors and on requests too
large to allocate (nothing is written), 3 on contract violations such as
a coherence bound failure.  Output files are written atomically (temp
file + rename) and input files are never modified: a command whose
output path resolves to its ``--in`` file, or exists and is not a regular
file (a FIFO, a device, a directory), exits 2 before any work.
Every JSON report echoes the config, the seed, the package version, and
the wall-clock duration; rerunning with the same config and seed
reproduces every payload byte for byte (durations aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import cache, partial

from . import __version__
from .dictionaries import (
    Dictionary,
    KIND_CODES,
    build_extended_oscillator_dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
    coherence_report,
    identical_build,
    load_dictionary,
    save_dictionary,
    write_atomic,
)
from .errors import SripError
from .field import PrimeField
from .paths import (
    MAX_LENGTH,
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
    check_seed,
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


def _add_campaign(subs, name: str, help: str) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--in", dest="input", help="dictionary file produced by `build`")
    sub.add_argument("--kind", choices=sorted(KIND_CODES), help="build this kind in memory")
    sub.add_argument("--p", type=int, help="prime (required with --kind)")
    sub.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    sub.add_argument("--delta-exponent", type=float, default=RunConfig.delta_exponent)
    sub.add_argument("--trials", type=int, default=RunConfig.trials)
    sub.add_argument("--seed", type=int, default=RunConfig.seed)
    sub.add_argument("--out-prefix", required=True)
    sub.set_defaults(run=_run_campaign)
    return sub


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each subcommand names its handler as ``run``."""
    parser = argparse.ArgumentParser(prog="srip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a dictionary and save it")
    b.add_argument("--kind", choices=sorted(KIND_CODES), required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--translations", type=int, default=None,
                   help="extended dictionary: keep this many seeded translations")
    b.add_argument("--subsample-seed", type=int, default=None,
                   help="extended dictionary: seed of the translation subsample (default 0)")
    b.add_argument("--allow-large", action="store_true",
                   help="permit the full extended dictionary above p = 5")
    b.set_defaults(run=_cmd_build)

    c = subs.add_parser("coherence", help="coherence of a dictionary file: through the anchor "
                        "row if the file is its own build, else over every cross-basis pair")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--out", help="optional JSON report path")
    c.set_defaults(run=_cmd_coherence)

    s = _add_campaign(subs, "spectrum", "full campaign: tails, moments, pooled spectrum")
    s.add_argument("--kmax", type=int, default=RunConfig.kmax)
    _add_campaign(subs, "srip", "tail frequencies of ||G - I|| only")
    m = _add_campaign(subs, "moments", "spectral moment means and variances")
    m.add_argument("--kmax", type=int, default=RunConfig.kmax)

    pv = subs.add_parser("paths-verify", help="path-class tables and exact estimates")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--out-prefix", default=None)
    pv.add_argument("--ladder", default=None,
                    help="comma-separated primes for exact estimate trajectories")
    pv.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    pv.add_argument("--fixed-n", type=int, default=None,
                    help="hold this support size fixed across the ladder normalizations")
    pv.set_defaults(run=_cmd_paths_verify)
    return parser


def _validate_dict_source(args) -> None:
    if args.input is not None:
        if args.kind is not None or args.p is not None:
            raise ValueError("pass either --in or (--kind, --p), not both")
        return
    if args.kind is None or args.p is None:
        raise ValueError("either --in or both --kind and --p are required")
    PrimeField(args.p)  # validates primality and p >= 5


def _cmd_build(args, started: float) -> int:
    _check_outputs(None, [args.out])
    extended_only = (args.translations is not None or args.subsample_seed is not None
                     or args.allow_large)
    if extended_only and args.kind != "extended_oscillator":
        raise ValueError("--translations, --subsample-seed and --allow-large apply to "
                         "--kind extended_oscillator only")
    if args.subsample_seed is not None and args.translations is None:
        raise ValueError("--subsample-seed picks the --translations subsample; "
                         "pass --translations with it")
    D = _build(
        args.kind,
        args.p,
        translation_subsample=args.translations,
        subsample_seed=args.subsample_seed or 0,
        allow_large=args.allow_large,
    )
    save_dictionary(args.out, D)
    print(f"wrote {args.kind} dictionary p={args.p}: {D.basis_count} bases, "
          f"{D.atom_count} atoms -> {args.out}")
    return EXIT_OK


def _check_outputs(input_path: str | None, outputs) -> None:
    """Raise ValueError if any output path resolves to the input file, or
    exists and, symlinks followed, is not a regular file (a FIFO, a device,
    a directory), which the rename of ``write_atomic`` would replace."""
    source = input_path and os.path.realpath(input_path)
    for out in outputs:
        if os.path.exists(out) and not os.path.isfile(out):
            raise ValueError(f"output {out} exists and is not a regular file")
        if os.path.realpath(out) == source:
            raise ValueError(f"output {out} would overwrite the input file {input_path}")


def _cmd_coherence(args, started: float) -> int:
    _check_outputs(args.input, [args.out] if args.out else [])
    # a file that is its own build is reported through the build's anchor row;
    # any other file is loaded and scanned pair by pair
    D = identical_build(args.input, partial(_build, allow_large=True))
    if D is None:
        D = load_dictionary(args.input)
    report = coherence_report(D)
    config = RunConfig(command="coherence", p=D.p, kind=D.kind, input=args.input)
    if args.out:
        write_atomic(args.out, _json_payload(config, asdict(report), started))
    status = "pass (vacuous)" if report.vacuous else ("pass" if report.passed else "FAIL")
    print(f"{D.kind} p={D.p}: max sqrt(p)*coherence = {report.max_scaled_coherence:.9f} "
          f"(mu = {report.mu}), within-basis deviation {report.max_within_basis_deviation:.3e}, "
          f"{report.scan} scan -> {status}")
    return EXIT_OK if report.passed else EXIT_CONTRACT


_CAMPAIGN_OUTPUTS = {  # the files each campaign writes, as suffixes of --out-prefix
    "spectrum": ("eigenvalues.csv", "moments.csv", "srip.csv", "report.json"),
    "srip": ("srip.csv", "report.json"),
    "moments": ("moments.csv", "report.json"),
}


def _run_campaign(args, started: float) -> int:
    _validate_dict_source(args)
    # `srip` has no --kmax, so its config keeps RunConfig's
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                          if hasattr(args, f.name)})
    outputs = {suffix: f"{args.out_prefix}.{suffix}"
               for suffix in _CAMPAIGN_OUTPUTS[config.command]}
    _check_outputs(config.input, outputs.values())  # fail before the load or the build
    check_kmax(config.kmax)
    check_delta_exponent(config.delta_exponent)
    check_seed(config.seed, config.trials)
    if config.input:
        D = load_dictionary(config.input)
        config.p = D.p
        config.kind = D.kind
    else:
        campaign_size(config.p, config.epsilon, config.trials)  # fail before the build
        D = _build(config.kind, config.p)
    report = run_spectrum(
        D,
        epsilon=config.epsilon,
        kmax=config.kmax,
        trials=config.trials,
        seed=config.seed,
        delta_exponent=config.delta_exponent,
    )
    if "eigenvalues.csv" in outputs:
        _write_csv(outputs["eigenvalues.csv"], "lambda",
                   [repr(float(x)) for x in report.eigenvalues])
    if "moments.csv" in outputs:
        _write_csv(outputs["moments.csv"], "k,mean,variance,semicircle_moment",
                   [f"{m.k},{m.mean!r},{m.variance!r},{m.semicircle!r}" for m in report.moments])
    if "srip.csv" in outputs:
        _write_csv(outputs["srip.csv"], "threshold_kind,threshold,frequency",
                   [f"{t.kind},{t.threshold!r},{t.frequency!r}" for t in report.tails])
    write_atomic(outputs["report.json"], _json_payload(config, report.to_dict(), started))
    print(f"{config.command} done: p={D.p} n={report.n} trials={report.trials} seed={report.seed} "
          f"ks_pooled={report.ks_pooled:.4f}")
    return EXIT_OK


def _cmd_paths_verify(args, started: float) -> int:
    if not 2 <= args.k <= MAX_LENGTH:
        raise ValueError(f"--k must be between 2 and {MAX_LENGTH}, got {args.k}")
    if args.fixed_n is not None and args.ladder is None:
        raise ValueError("--fixed-n holds the support size across the --ladder primes; "
                         "pass --ladder with it")
    ladder = []
    if args.ladder is not None:  # check the whole ladder before any write or build
        ladder = [PrimeField(int(x)) for x in args.ladder.split(",")]
        ps = [f.p for f in ladder]
        if len(set(ps)) < len(ps):
            raise ValueError(f"--ladder repeats a prime: {args.ladder}")
        ladder_support_sizes(ps, args.epsilon, args.fixed_n)
    if args.out_prefix:
        names = ("classes", "estimates") if ladder else ("classes",)
        _check_outputs(None, [f"{args.out_prefix}.{name}.csv" for name in names])
    classes = enumerate_path_classes(args.k)
    trees = [pc for pc in classes if pc.is_tree]
    rows = []
    for pc in classes:
        dyck = "".join("+" if d == 1 else "-" for d in tree_to_dyck(pc)) if pc.is_tree else ""
        rows.append(f"{pc},{pc.k},{pc.vertex_count},{int(pc.is_tree)},{dyck}")
    table = []
    if ladder:  # the table raises before either file is written
        dicts = {f.p: build_heisenberg_dictionary(f) for f in ladder}
        usable = [
            pc for pc in classes
            if all(within_budget(pc.vertex_count, d.atom_count) for d in dicts.values())
        ]
        table = trajectory_table(dicts, usable, epsilon=args.epsilon, fixed_n=args.fixed_n)
    if args.out_prefix:
        _write_csv(f"{args.out_prefix}.classes.csv", "class,k,vertices,is_tree,dyck", rows)
        if ladder:
            _write_csv(
                f"{args.out_prefix}.estimates.csv", "class,p,n_tau_Ew_real,n_tau_Ew_imag",
                [f"{row.path_class},{pt.p},{pt.value.real!r},{pt.value.imag!r}"
                 for row in table for pt in row.points],
            )

    expected = catalan_number(args.k // 2) if args.k % 2 == 0 else 0
    print(f"k={args.k}: {len(classes)} classes, {len(trees)} trees "
          f"(catalan count {expected}) -> {'ok' if len(trees) == expected else 'MISMATCH'}")
    for row in table:
        trend = "->1" if row.is_tree else "->0"
        print(f"  {row.path_class}: tree={row.is_tree} {trend} "
              f"final={row.final_value.real:.6f}{row.final_value.imag:+.2e}i "
              f"converging={row.converging}")
    return EXIT_OK if len(trees) == expected else EXIT_CONTRACT


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        return args.run(args, started)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SripError as exc:
        print(f"contract violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
