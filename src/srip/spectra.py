"""Monte Carlo statistics of random dictionary supports.

A trial draws an injective ordered support of size n = floor(p^(1-eps))
uniformly at random, forms the Gram matrix G of the selected atoms and
the normalized error E = sqrt(p/n) (G - I), and records the spectrum of
E.  One entry point, ``run_spectrum``, derives the tail frequencies of
||G - I||, the sample moments of the spectral distribution and the
comparison against the semicircle law from the per-trial eigenvalues,
which one core, ``_campaign``, draws under the campaign rules:
trials >= 1, 0 < eps < 1, 2 <= n <= |D| and
0 <= seed <= seed + trials - 1 < 2^128 (``check_seed``).  The moment and
tail tables add 1 <= kmax <= 10 (``check_kmax``) and a finite delta exponent
e > -2 (``check_delta_exponent``).
The core runs the trials in chunks from ``linalg.chunks``, a trial
costing 4 p n entries, about what its gathered atoms, their conjugate and
its n x n matrices take together: each chunk's Gram and error matrices
come from one stacked product and its spectra from one stacked
eigensolve, and only the eigenvalues are kept.

Randomness comes from numpy's Philox counter-based 64-bit generator;
trial i uses the key seed + i, so each trial's draw is independent of
every other trial and of the order the trials run in.  A campaign
builds one Philox and re-keys it for each trial (``_keyed_draws``).
The support of one key is ``paths._distinct_indices``: a partial
Fisher-Yates shuffle whose draw i is ``integers(i, N)``.  A campaign
chunk takes each trial's first ceil(n/2) raw 64-bit words instead and
draws all its supports in one uint64 pass, with numpy's 32-bit Lemire
step j = i + ((w (N - i)) >> 32), w the i-th 32-bit half (low half
first).  A row is kept only where that step is exactly what
``integers`` does and the shuffle moves nothing: N <= 2^32, no low half
(w (N - i)) mod 2^32 falls below N - i (so Lemire's rejection cannot
fire) and the n indices are distinct.  Every other row, about n^2/2N of
them, is drawn per key, so the chunk equals the per-key draws bit for
bit.  100 draws at heisenberg p = 31 (n = 11) cost 0.32 ms this way
against 1.07 ms per key (2 cores, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dictionaries import Dictionary
from .errors import SupportTooLargeError
from .linalg import chunks, gram, hermitian_eig
from .paths import MAX_LENGTH, _check_support, _distinct_indices, support_size

HISTOGRAM_EDGES = np.linspace(-3.0, 3.0, 61)


def sample_support(D: Dictionary, n: int, seed: int) -> np.ndarray:
    """Uniform random injective ordered support via a partial Fisher-Yates shuffle."""
    N = D.atom_count
    if n > N:
        raise SupportTooLargeError(f"support size {n} exceeds dictionary size {N}")
    if n < 1:
        raise ValueError("support size must be at least 1")
    seed = int(seed)
    check_seed(seed, 1)
    return _keyed_draws(N, n)(seed)


def _keyed_draws(N: int, n: int):
    """The function of a Philox key k that draws ``sample_support``'s support
    of size n from range(N) with key k.  Its ``rows(keys)`` draws the
    supports of a range of keys as one (len(keys), n) stack, row for row
    the same as the function's.

    Every draw comes from one Philox, re-keyed by setting its state to the
    fresh stream of key k, which costs a sixth of building a generator.
    ``rows`` takes the first ceil(n/2) raw words of each key and applies
    numpy's 32-bit Lemire step to all rows at once; a row where that step
    could reject, or whose indices collide so that the shuffle would move
    one, is drawn again through the function (see the module docstring).
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state  # a fresh stream: counter 0, nothing buffered
    key_words = state["state"]["key"]
    words = -(-n // 2)  # two 32-bit draws to a raw word

    def rekey(key: int) -> None:
        # the 128-bit key as two 64-bit words, low word first, as Philox(key=k) splits it
        key_words[0], key_words[1] = key & (2**64 - 1), key >> 64
        bits.state = state

    def draw(key: int) -> np.ndarray:
        rekey(key)
        return _distinct_indices(rng, N, n)

    def rows(keys: range) -> np.ndarray:
        if N > 2**32:  # integers(i, N) takes 64-bit draws here
            return np.stack([draw(key) for key in keys])
        raw = np.empty((len(keys), words), dtype=np.uint64)
        for r, key in enumerate(keys):
            rekey(key)
            raw[r] = bits.random_raw(words)
        # next_uint32 hands out the low half of each word, then the high half
        w = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).reshape(len(keys), -1)[:, :n]
        span = N - np.arange(n, dtype=np.uint64)  # draw i is uniform on range(N - i)
        m = w * span  # < 2^64, as w < 2^32 and N - i <= 2^32
        out = (m >> 32).astype(np.int_) + np.arange(n)
        ordered = np.sort(out, axis=1)
        exact = ((m & 0xFFFFFFFF) >= span).all(axis=1) & (
            ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        for r in np.flatnonzero(~exact):
            out[r] = draw(keys[r])
        return out

    draw.rows = rows
    return draw


def _gram_stack(
    D: Dictionary, supports: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, E, eigenvalues) stacks for a (k, n) stack of supports.

    The atoms of every support are gathered at once; one stacked product
    gives each G and E = sqrt(p/n) (G - I), and one stacked eigensolve
    gives each spectrum of E, descending.  Each matrix comes out as it
    would from its own product and eigensolve, bit for bit.
    """
    n = supports.shape[-1]
    G = gram(D.atoms_matrix[:, supports].swapaxes(0, 1))  # (k, p, n): atoms as columns
    E = math.sqrt(D.p / n) * (G - np.eye(n))
    E = (E + E.conj().swapaxes(-1, -2)) / 2  # absorb accumulation error before the eigensolve
    return G, E, hermitian_eig(E)


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


def check_seed(seed: int, trials: int) -> None:
    """The seed rule: raises ValueError unless every trial key is a Philox key.

    Trial i of ``trials`` uses the key seed + i, which must lie in [0, 2^128).
    """
    if not (0 <= seed and seed + trials - 1 < 2**128):
        raise ValueError(
            f"seed must satisfy 0 <= seed and seed + trials - 1 < 2**128, "
            f"got seed={seed} with trials={trials}"
        )


def _campaign(D: Dictionary, epsilon: float, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """(n, eigs): the support size and the (trials, n) normalized-error eigenvalues.

    Checks ``campaign_size`` and ``check_seed``, then n <= |D|; trial i
    draws its support with the key seed + i.  Trials run a chunk at a time
    through ``_gram_stack``, so row i equals the spectrum that
    ``_gram_stack`` gives for trial i's support alone.
    """
    n = campaign_size(D.p, epsilon, trials)
    check_seed(seed, trials)
    _check_support(n, D)
    draw = _keyed_draws(D.atom_count, n)
    eigs = np.empty((trials, n))
    for lo, hi in chunks(trials, 4 * D.p * n):
        eigs[lo:hi] = _gram_stack(D, draw.rows(range(seed + lo, seed + hi)))[2]
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


@dataclass(frozen=True)
class MomentStatistics:
    k: int
    mean: float
    variance: float
    semicircle: float


def check_kmax(kmax: int) -> None:
    """The moment-table rule: raises ValueError unless 1 <= kmax <= ``paths.MAX_LENGTH``,
    the range of the exact path classes, in which every eigenvalue power and
    semicircle moment is a finite float."""
    if not 1 <= kmax <= MAX_LENGTH:
        raise ValueError(f"kmax must be between 1 and {MAX_LENGTH}, got {kmax}")


def _moment_rows(eigs: np.ndarray, kmax: int) -> list[MomentStatistics]:
    rows = []
    for k in range(1, kmax + 1):
        mk = np.mean(eigs**k, axis=1)
        mean = float(np.mean(mk))
        variance = float(np.var(mk, ddof=1)) if len(mk) > 1 else 0.0
        rows.append(MomentStatistics(k, mean, variance, float(semicircle_moment(k))))
    return rows


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


def semicircle_cdf(x) -> np.ndarray:
    """Closed-form distribution function of the semicircle law."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    return (xc * np.sqrt(4.0 - xc**2) / 4.0 + np.arcsin(xc / 2.0)) / np.pi + 0.5


def ks_statistic(sample: np.ndarray) -> float | np.ndarray:
    """Two-sided Kolmogorov-Smirnov statistic of a sample against the semicircle law.

    The last axis holds the sample: a 1-D sample gives a float, a stack
    of samples the array of their statistics.
    """
    x = np.sort(np.asarray(sample, dtype=float), axis=-1)
    m = x.shape[-1]
    if m == 0:
        raise ValueError("empty sample")
    F = semicircle_cdf(x)
    i = np.arange(m)
    d = np.maximum(F - i / m, (i + 1) / m - F).max(axis=-1)
    return float(d) if d.ndim == 0 else d


@dataclass(eq=False)
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
) -> SpectralReport:
    """One campaign: tail frequencies, moments, pooled spectrum, KS distances.

    ``delta_exponent`` and ``kmax`` are checked by ``check_delta_exponent``
    and ``check_kmax`` before any trial is drawn.
    """
    check_delta_exponent(delta_exponent)
    check_kmax(kmax)
    n, eigs = _campaign(D, epsilon, trials, seed)
    pooled = eigs.reshape(-1)
    counts, _ = np.histogram(pooled, bins=HISTOGRAM_EDGES)
    outside = int(pooled.size - counts.sum())

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
        ks_per_trial_mean=float(np.mean(ks_statistic(eigs))),
    )
