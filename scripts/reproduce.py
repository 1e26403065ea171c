#!/usr/bin/env python3
"""Tabulate the paper's three claims over one fixed list of dictionaries.

    python3 scripts/reproduce.py [OUT_DIR]     # OUT_DIR defaults to results/

Writes, byte for byte the same on every run:

* coherence.csv: sqrt(p)*max|<phi, psi>| over cross-basis pairs against mu;
* srip.csv: how often ||G - I|| of a random support reaches each threshold;
* semicircle.csv: the Monte Carlo moments of sqrt(p/n)(G - I) with their
  standard errors, the exact moments (empty outside the exact-sum budget),
  the semicircle moments and the pooled KS distance.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from srip.dictionaries import (  # noqa: E402
    build_extended_oscillator_dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
    coherence_report,
    write_atomic,
)
from srip.errors import BudgetExceededError  # noqa: E402
from srip.field import PrimeField  # noqa: E402
from srip.paths import exact_spectral_moment  # noqa: E402
from srip.spectra import run_spectrum  # noqa: E402

EPSILON = 0.3
TRIALS = 200
SEED = 42
KMAX = 6
# (builder, p, builder arguments)
DICTIONARIES = (
    [(build_heisenberg_dictionary, p, {}) for p in (5, 7, 11, 13, 17, 19, 31, 61, 101)]
    + [(build_oscillator_dictionary, p, {}) for p in (5, 7, 11, 13, 17, 31, 61)]
    + [(build_extended_oscillator_dictionary, 5, {}),
       (build_extended_oscillator_dictionary, 7,
        {"translation_subsample": 8, "subsample_seed": 0})]
)


def _exact(D, n: int, k: int) -> str:
    try:
        return repr(exact_spectral_moment(D, n, k))
    except BudgetExceededError:
        return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", nargs="?", default="results")
    out_dir = ap.parse_args(argv).out_dir
    coherence = ["kind,p,bases,atoms,pairs,mu,max_scaled,min_scaled,margin"]
    srip = ["kind,p,n,threshold_kind,threshold,frequency"]
    semicircle = ["kind,p,k,n,mean,stderr,exact,semicircle_moment,ks_pooled"]
    for build, p, arguments in DICTIONARIES:
        D = build(PrimeField(p), **arguments)
        kind = D.kind
        c = coherence_report(D)
        coherence.append(
            f"{kind},{p},{c.basis_count},{c.atom_count},{c.cross_pairs_checked},{c.mu!r},"
            f"{c.max_scaled_coherence!r},{c.min_scaled_coherence!r},"
            f"{c.mu - c.max_scaled_coherence!r}"
        )
        r = run_spectrum(D, epsilon=EPSILON, kmax=KMAX, trials=TRIALS, seed=SEED)
        srip += [f"{kind},{p},{r.n},{t.kind},{t.threshold!r},{t.frequency!r}" for t in r.tails]
        semicircle += [
            f"{kind},{p},{m.k},{r.n},{m.mean!r},{math.sqrt(m.variance / r.trials)!r},"
            f"{_exact(D, r.n, m.k)},{m.semicircle!r},{r.ks_pooled!r}"
            for m in r.moments
        ]
        print(f"{kind} p={p}: max sqrt(p)|<phi,psi>| = {c.max_scaled_coherence:.9f}, "
              f"n = {r.n}, ks_pooled = {r.ks_pooled:.4f}")
    for name, rows in (("coherence", coherence), ("srip", srip), ("semicircle", semicircle)):
        write_atomic(os.path.join(out_dir, f"{name}.csv"), "\n".join(rows) + "\n")
    print(f"tables written under {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
