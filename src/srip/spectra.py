"""Monte Carlo statistics of random dictionary supports.

A trial draws an injective ordered support of size n = floor(p^(1-eps))
uniformly at random, forms the Gram matrix G of the selected atoms and
the normalized error E = sqrt(p/n) (G - I), and records the spectrum of
E.  Tail frequencies of ||G - I||, sample moments of the spectral
distribution, and the comparison against the semicircle law all derive
from the per-trial eigenvalues, which one core, ``_campaign``, draws
under the campaign rules: trials >= 1, 0 < eps < 1 and 2 <= n <= |D|.

Randomness comes from numpy's Philox counter-based 64-bit generator;
trial i uses the key seed + i, so each trial's draw is independent of
every other trial and of the order the trials run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dictionaries import Dictionary
from .errors import SupportTooLargeError
from .linalg import hermitian_eig
from .paths import _distinct_indices, support_size

HISTOGRAM_EDGES = np.linspace(-3.0, 3.0, 61)


def sample_support(D: Dictionary, n: int, seed: int) -> np.ndarray:
    """Uniform random injective ordered support via a partial Fisher-Yates shuffle."""
    N = D.atom_count
    if n > N:
        raise SupportTooLargeError(f"support size {n} exceeds dictionary size {N}")
    if n < 1:
        raise ValueError("support size must be at least 1")
    return _distinct_indices(np.random.Generator(np.random.Philox(key=int(seed))), N, n)


@dataclass(frozen=True)
class GramSample:
    """One sampled support with its Gram matrix and normalized error spectrum."""

    support: np.ndarray
    G: np.ndarray
    E: np.ndarray
    eigenvalues: np.ndarray  # eigenvalues of E, descending
    p: int
    n: int


def gram_sample(D: Dictionary, support: np.ndarray) -> GramSample:
    """Gram matrix, normalized error, and its spectrum for a given support."""
    A = D.atoms_matrix[:, support]
    n = len(support)
    G = A.T @ A.conj()
    E = math.sqrt(D.p / n) * (G - np.eye(n))
    E = (E + E.conj().T) / 2  # absorb accumulation error before the eigensolve
    eig = hermitian_eig(E)
    return GramSample(np.asarray(support), G, E, eig.eigenvalues, D.p, n)


def rip_deviation(sample: GramSample) -> float:
    """Exact sup of | ||synthesis(f)|| - ||f|| | over unit f supported on the sample.

    Computed from the Gram spectrum: lambda_i(G) = 1 + sqrt(n/p) lambda_i(E),
    with the smallest eigenvalue clamped at 0 before the square root.
    """
    scale = math.sqrt(sample.n / sample.p)
    lam = 1.0 + scale * sample.eigenvalues
    lam_max = float(lam[0])
    lam_min = max(float(lam[-1]), 0.0)
    return max(math.sqrt(lam_max) - 1.0, 1.0 - math.sqrt(lam_min), 0.0)


def campaign_size(p: int, epsilon: float, trials: int) -> int:
    """Support size n = floor(p^(1-eps)) of a campaign of ``trials`` trials.

    Raises ValueError unless trials >= 1, 0 < epsilon < 1 and n >= 2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = support_size(p, epsilon)
    if n < 2:
        raise ValueError(f"support size floor(p^(1-eps)) = {n} is too small; need >= 2")
    return n


def _campaign(D: Dictionary, epsilon: float, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """(n, eigs): the support size and the (trials, n) normalized-error eigenvalues.

    Checks ``campaign_size``, then n <= |D|; trial i draws its support
    with the key seed + i.
    """
    n = campaign_size(D.p, epsilon, trials)
    if n > D.atom_count:
        raise ValueError(f"support size n={n} invalid for |D|={D.atom_count}")
    eigs = np.vstack(
        [gram_sample(D, sample_support(D, n, seed + i)).eigenvalues for i in range(trials)]
    )
    return n, eigs


@dataclass(frozen=True)
class TailThreshold:
    kind: str
    threshold: float
    frequency: float


def _tail_rows(
    eigs: np.ndarray, p: int, n: int, epsilon: float, delta_exponent: float
) -> list[TailThreshold]:
    """Fraction of trials with ||G - I|| = sqrt(n/p) max|eig(E)| at or above each threshold."""
    norms = math.sqrt(n / p) * np.abs(eigs).max(axis=1)
    thresholds = [
        ("p^(-eps/2)", p ** (-epsilon / 2.0)),
        ("(n/p)^(1/(2+e))", (n / p) ** (1.0 / (2.0 + delta_exponent))),
    ]
    return [
        TailThreshold(kind, thr, float(np.mean(norms >= thr))) for kind, thr in thresholds
    ]


def check_delta_exponent(delta_exponent: float) -> None:
    """The tail-threshold rule: raises ValueError unless the exponent e is finite and e > -2.

    The threshold (n/p)^(1/(2+e)) divides by 2 + e.
    """
    if not (math.isfinite(delta_exponent) and delta_exponent > -2.0):
        raise ValueError(
            f"delta exponent must be finite and greater than -2, got {delta_exponent!r}"
        )


def srip_tail_frequencies(
    D: Dictionary,
    epsilon: float,
    delta_exponent: float = 0.5,
    trials: int = 200,
    seed: int = 42,
) -> list[TailThreshold]:
    """Fraction of trials with ||G - I|| at or above each configured threshold.

    Two threshold families are reported: p^(-eps/2), and
    (n/p)^(1/(2+e)) with e = ``delta_exponent``, checked by
    ``check_delta_exponent`` before any trial is drawn.
    """
    check_delta_exponent(delta_exponent)
    n, eigs = _campaign(D, epsilon, trials, seed)
    return _tail_rows(eigs, D.p, n, epsilon, delta_exponent)


@dataclass(frozen=True)
class MomentStatistics:
    k: int
    mean: float
    variance: float
    semicircle: float


def check_kmax(kmax: int) -> None:
    """The moment-table rule: raises ValueError unless kmax >= 1."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")


def _moment_rows(eigs: np.ndarray, kmax: int) -> list[MomentStatistics]:
    check_kmax(kmax)
    rows = []
    for k in range(1, kmax + 1):
        mk = np.mean(eigs**k, axis=1)
        mean = float(np.mean(mk))
        variance = float(np.var(mk, ddof=1)) if len(mk) > 1 else 0.0
        rows.append(MomentStatistics(k, mean, variance, float(semicircle_moment(k))))
    return rows


def moment_statistics(
    D: Dictionary,
    epsilon: float,
    kmax: int = 6,
    trials: int = 200,
    seed: int = 42,
) -> list[MomentStatistics]:
    """Sample mean and unbiased variance of the spectral moments m_k, k <= kmax."""
    _, eigs = _campaign(D, epsilon, trials, seed)
    return _moment_rows(eigs, kmax)


def catalan_number(m: int) -> int:
    """binom(2m, m) / (m + 1), exactly."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return math.comb(2 * m, m) // (m + 1)


def semicircle_moment(k: int) -> int:
    """Moments of the semicircle law: 0 for odd k, a Catalan number for even k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 0 if k % 2 else catalan_number(k // 2)


def semicircle_density(x) -> np.ndarray:
    """(1/2pi) sqrt(4 - x^2) on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) <= 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * np.pi)
    return out


def semicircle_cdf(x) -> np.ndarray:
    """Closed-form distribution function of the semicircle law."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    return (xc * np.sqrt(4.0 - xc**2) / 4.0 + np.arcsin(xc / 2.0)) / np.pi + 0.5


def ks_statistic(sample: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a sample against the semicircle law."""
    x = np.sort(np.asarray(sample, dtype=float))
    m = len(x)
    if m == 0:
        raise ValueError("empty sample")
    F = semicircle_cdf(x)
    i = np.arange(m)
    return float(np.maximum(F - i / m, (i + 1) / m - F).max())


@dataclass
class SpectralReport:
    """Aggregated statistics of one Monte Carlo campaign."""

    p: int
    kind: str
    n: int
    epsilon: float
    delta_exponent: float
    kmax: int
    trials: int
    seed: int
    tails: list[TailThreshold] = dc_field(default_factory=list)
    moments: list[MomentStatistics] = dc_field(default_factory=list)
    eigenvalues: np.ndarray | None = None  # pooled, trial-major
    histogram_edges: list[float] = dc_field(default_factory=list)
    histogram_counts: list[int] = dc_field(default_factory=list)
    histogram_outside: int = 0
    ks_pooled: float = 0.0
    ks_per_trial_mean: float = 0.0

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "kind": self.kind,
            "n": self.n,
            "epsilon": self.epsilon,
            "delta_exponent": self.delta_exponent,
            "kmax": self.kmax,
            "trials": self.trials,
            "seed": self.seed,
            "srip_tails": [
                {"threshold_kind": t.kind, "threshold": t.threshold, "frequency": t.frequency}
                for t in self.tails
            ],
            "moments": [
                {
                    "k": m.k,
                    "mean": m.mean,
                    "variance": m.variance,
                    "semicircle_moment": m.semicircle,
                }
                for m in self.moments
            ],
            "eigenvalue_count": 0 if self.eigenvalues is None else int(self.eigenvalues.size),
            "histogram_edges": self.histogram_edges,
            "histogram_counts": self.histogram_counts,
            "histogram_outside": self.histogram_outside,
            "ks_pooled": self.ks_pooled,
            "ks_per_trial_mean": self.ks_per_trial_mean,
        }


def run_spectrum(
    D: Dictionary,
    epsilon: float = 0.3,
    kmax: int = 6,
    trials: int = 200,
    seed: int = 42,
    delta_exponent: float = 0.5,
    threads: int | None = None,
) -> SpectralReport:
    """One campaign: tail frequencies, moments, pooled spectrum, KS distances.

    ``threads`` is accepted for compatibility and has no effect; trials
    run one after another in the calling thread.  ``delta_exponent`` is
    checked by ``check_delta_exponent`` before any trial is drawn.
    """
    check_delta_exponent(delta_exponent)
    n, eigs = _campaign(D, epsilon, trials, seed)
    pooled = eigs.reshape(-1)
    counts, _ = np.histogram(pooled, bins=HISTOGRAM_EDGES)
    outside = int(pooled.size - counts.sum())
    per_trial_ks = [ks_statistic(row) for row in eigs]

    return SpectralReport(
        p=D.p,
        kind=D.kind,
        n=n,
        epsilon=epsilon,
        delta_exponent=delta_exponent,
        kmax=kmax,
        trials=trials,
        seed=seed,
        tails=_tail_rows(eigs, D.p, n, epsilon, delta_exponent),
        moments=_moment_rows(eigs, kmax),
        eigenvalues=pooled,
        histogram_edges=[float(e) for e in HISTOGRAM_EDGES],
        histogram_counts=[int(c) for c in counts],
        histogram_outside=outside,
        ks_pooled=ks_statistic(pooled),
        ks_per_trial_mean=float(np.mean(per_trial_ks)),
    )
