"""Checks of srip's outputs that share no code with srip.

Each check returns its problems as messages, grouped by the command
whose output they concern where it checks more than one; no message
means the output is right.  Files are read with this module's own reader
of the documented SRIPDCT1 format; expected values come from closed
forms, numpy's LAPACK eigensolver and brute-force enumeration.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

TOL = 1e-9
KIND_CODES = {"heisenberg": 0, "oscillator": 1, "extended_oscillator": 2}


# ---------------------------------------------------------------------------
# SRIPDCT1 reader and dictionary facts
# ---------------------------------------------------------------------------


class DictionaryFile:
    """The contents of one .srip file: bases[b][:, j] is atom j of basis b."""

    def __init__(self, path):
        data = Path(path).read_bytes()
        if data[:8] != b"SRIPDCT1":
            raise ValueError(f"{path}: bad magic")
        version, self.p, self.kind_code, nb, self.mu = struct.unpack_from("<IIBId", data, 8)
        if version != 1:
            raise ValueError(f"{path}: version {version}")
        p, off = self.p, 29
        self.labels, blocks = [], []
        for _ in range(nb):
            (length,) = struct.unpack_from("<I", data, off)
            off += 4
            self.labels.append(data[off:off + length].decode("utf-8"))
            off += length
            blocks.append(np.frombuffer(data, "<c16", p * p, off).reshape(p, p).T)
            off += 16 * p * p
        if off != len(data):
            raise ValueError(f"{path}: {len(data) - off} trailing bytes")
        self.bases = np.stack(blocks) if blocks else np.zeros((0, p, p), complex)

    @property
    def basis_count(self) -> int:
        return len(self.bases)

    @property
    def atoms(self) -> np.ndarray:
        """p x N matrix of all atoms in basis order."""
        nb, p, _ = self.bases.shape
        return self.bases.transpose(1, 0, 2).reshape(p, nb * p)


def expected_basis_count(kind: str, p: int, translations: int | None = None) -> int:
    if kind == "heisenberg":
        return p + 1
    if kind == "oscillator":
        return p * (p - 1) // 2
    return translations * p * (p - 1) // 2


def cross_coherence(bases: np.ndarray) -> tuple[float, float]:
    """(max, min) of |<phi, psi>| over atoms of distinct bases."""
    nb, p, _ = bases.shape
    M = bases.transpose(1, 0, 2).reshape(p, nb * p)
    hi, lo = 0.0, math.inf
    for x in range(nb):
        block = np.abs(bases[x].conj().T @ M)
        block[:, x * p:(x + 1) * p] = np.nan
        hi = max(hi, float(np.nanmax(block)))
        lo = min(lo, float(np.nanmin(block)))
    return hi, lo


def chirp_residual(p: int, labels: list[str], bases: np.ndarray) -> tuple[float, list[str]]:
    """Largest distance from a heisenberg atom to its matching closed-form atom.

    Basis "line:m" must equal the chirps p^{-1/2} psi(-m t^2/2 + b t) and
    "line:inf" the delta basis, each up to permutation and unit phases.
    """
    problems = []
    wanted = {f"line:{m}" for m in range(p)} | {"line:inf"}
    if set(labels) != wanted or len(labels) != len(wanted):
        return math.inf, [f"line labels {sorted(labels)[:4]}... are not one per line"]
    t = np.arange(p)
    inv2 = pow(2, p - 2, p)
    worst = 0.0
    for label, B in zip(labels, bases):
        if label == "line:inf":
            C = np.eye(p, dtype=complex)
        else:
            m = int(label.split(":")[1])
            expo = (-m * inv2 * t[:, None] ** 2 + t[:, None] * t[None, :]) % p
            C = np.exp(2j * np.pi * expo / p) / math.sqrt(p)
        overlap = C.conj().T @ B  # overlap[b, j] = <chirp_b, atom_j>
        match = np.argmax(np.abs(overlap), axis=0)
        if len(set(match.tolist())) != p:
            problems.append(f"{label}: atoms do not match the chirps one to one")
            continue
        phase = overlap[match, t] / np.abs(overlap[match, t])
        worst = max(worst, float(np.abs(B - C[:, match] * phase).max()))
    return worst, problems


def check_dictionary(path, kind: str, p: int, translations: int | None,
                     report_path) -> dict[str, list[str]]:
    """Problems of the written file ("build") and of the coherence report ("coherence").

    The file is checked for its basis count, orthonormality, the tight
    frame identity and its coherence; the report must agree with the
    coherence computed here.
    """
    try:
        d = DictionaryFile(path)
    except (OSError, ValueError) as exc:
        return {"build": [str(exc)], "coherence": [f"{path} unreadable"]}
    problems = []
    nb = expected_basis_count(kind, p, translations)
    if (d.p, d.kind_code, d.basis_count) != (p, KIND_CODES[kind], nb):
        return {"build": [f"{path}: header p={d.p} kind={d.kind_code} bases={d.basis_count}, "
                          f"expected p={p} kind={KIND_CODES[kind]} bases={nb}"],
                "coherence": [f"{path} has the wrong header"]}
    orth = np.abs(np.einsum("bti,btj->bij", d.bases.conj(), d.bases) - np.eye(p)).max()
    if orth > TOL:
        problems.append(f"{path}: orthonormality deviation {orth:.3e}")
    M = d.atoms
    frame = np.abs(M @ M.conj().T - nb * np.eye(p)).max()
    if frame > TOL * nb:
        problems.append(f"{path}: |MM^H - {nb} I| = {frame:.3e}")
    hi, lo = cross_coherence(d.bases)
    scaled = math.sqrt(p) * hi
    if kind == "heisenberg":
        spread = max(hi - 1 / math.sqrt(p), 1 / math.sqrt(p) - lo)
        if spread > TOL:
            problems.append(f"{path}: cross |<phi,psi>| deviates from 1/sqrt(p) by {spread:.3e}")
        resid, chirp_problems = chirp_residual(p, d.labels, d.bases)
        problems += chirp_problems
        if resid > TOL:
            problems.append(f"{path}: chirp match residual {resid:.3e}")
    elif scaled > 4 + TOL:
        problems.append(f"{path}: max sqrt(p)|<phi,psi>| = {scaled:.6f} > 4")
    found = {"build": problems, "coherence": []}
    try:
        report = json.loads(Path(report_path).read_text())["report"]
    except (OSError, ValueError, KeyError) as exc:
        found["coherence"].append(f"{report_path}: {exc}")
        return found
    if abs(report["max_scaled_coherence"] - scaled) > TOL:
        found["coherence"].append(f"{report_path}: max_scaled_coherence "
                                  f"{report['max_scaled_coherence']} != {scaled}")
    if report["cross_pairs_checked"] != nb * (nb - 1) // 2 * p * p or not report["passed"]:
        found["coherence"].append(f"{report_path}: pairs {report['cross_pairs_checked']}, "
                                  f"passed {report['passed']}")
    return found


# ---------------------------------------------------------------------------
# Monte Carlo campaigns
# ---------------------------------------------------------------------------


def support_size(p: int, epsilon: float) -> int:
    return int(math.floor(p ** (1.0 - epsilon) + 1e-9))


def m2_closed_form(p: int, n: int, nb: int, N: int) -> float:
    """E m_2 = p(n-1)(nb-1)/(n(N-1)) for a tight frame of nb orthonormal bases."""
    return p * (n - 1) * (nb - 1) / (n * (N - 1))


def m3_closed_form(p: int, n: int, nb: int, N: int) -> float:
    return ((p / n) ** 1.5 * (n - 1) * (n - 2) * (p * nb**3 - 3 * p * nb**2 + 2 * N)
            / (N * (N - 1) * (N - 2)))


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tail_rows(eigs: np.ndarray, p: int, n: int, epsilon: float, delta: float) -> list[tuple]:
    norms = math.sqrt(n / p) * np.abs(eigs).max(axis=1)
    thresholds = [("p^(-eps/2)", p ** (-epsilon / 2.0)),
                  ("(n/p)^(1/(2+e))", (n / p) ** (1.0 / (2.0 + delta)))]
    return [(kind, thr, float(np.mean(norms >= thr))) for kind, thr in thresholds]


def check_campaign(dict_path, spectrum_prefix, srip_prefix, trials: int, seed: int,
                   epsilon: float, delta: float, sample_support) -> dict[str, list[str]]:
    """Problems keyed by "spectrum" and "srip", the two commands checked."""
    problems = {"spectrum": [], "srip": []}
    d = DictionaryFile(dict_path)
    p, nb, M = d.p, d.basis_count, d.atoms
    N = M.shape[1]
    n = support_size(p, epsilon)
    rows = _read_rows(f"{spectrum_prefix}.eigenvalues.csv")
    if rows[:1] != [["lambda"]] or len(rows) - 1 != trials * n:
        problems["spectrum"].append(f"eigenvalue CSV has {len(rows) - 1} rows, "
                                    f"expected {trials * n}")
        return problems
    eigs = np.array([float(r[0]) for r in rows[1:]]).reshape(trials, n)
    drift = float(np.abs(eigs.sum(axis=1)).max())
    if drift > TOL:
        problems["spectrum"].append(f"trial eigenvalues sum to {drift:.3e}, not 0")

    class _Size:  # sample_support reads only the atom count
        atom_count = N

    for i in sorted({0, trials // 2, trials - 1}):
        support = np.asarray(sample_support(_Size, n, seed + i))
        A = M[:, support]
        E = math.sqrt(p / n) * (A.T @ A.conj() - np.eye(n))
        ref = np.linalg.eigvalsh(E)[::-1]
        err = float(np.abs(ref - eigs[i]).max())
        if err > TOL:
            problems["spectrum"].append(f"trial {i}: eigenvalues off eigvalsh by {err:.3e}")

    m2 = np.mean(eigs**2, axis=1)
    mean, se = float(m2.mean()), float(m2.std(ddof=1) / math.sqrt(trials))
    closed = m2_closed_form(p, n, nb, N)
    if abs(mean - closed) > 4 * se:
        problems["spectrum"].append(f"mean m2 {mean:.6f} is {abs(mean - closed) / se:.1f} "
                                    f"standard errors from {closed:.6f}")
    moments = {int(r[0]): float(r[1]) for r in _read_rows(f"{spectrum_prefix}.moments.csv")[1:]}
    if abs(moments.get(2, math.inf) - mean) > 1e-12 * max(1.0, mean):
        problems["spectrum"].append(f"moments.csv m2 {moments.get(2)} != {mean}")

    want = tail_rows(eigs, p, n, epsilon, delta)
    for command, prefix in (("spectrum", spectrum_prefix), ("srip", srip_prefix)):
        got = _read_rows(f"{prefix}.srip.csv")[1:]
        if len(got) != len(want) or any(
            g[0] != w[0] or abs(float(g[1]) - w[1]) > 1e-12 or float(g[2]) != w[2]
            for g, w in zip(got, want)
        ):
            problems[command].append(f"{prefix}.srip.csv tails {got} != {want}")
    if _read_rows(f"{spectrum_prefix}.srip.csv") != _read_rows(f"{srip_prefix}.srip.csv"):
        problems["srip"].append("spectrum and srip tail rows differ at the same seed")
    return problems


# ---------------------------------------------------------------------------
# exact moments and path classes
# ---------------------------------------------------------------------------


def exhaustive_moments(M: np.ndarray, p: int, n: int, kmax: int = 4,
                       chunk: int = 1 << 17) -> list[float]:
    """Average of (1/n) tr(E^k), k = 1..kmax, over every n-subset of atoms."""
    N = M.shape[1]
    G = M.T @ M.conj()
    count = math.comb(N, n)
    flat = itertools.chain.from_iterable(itertools.combinations(range(N), n))
    idx = np.fromiter(flat, dtype=np.int64, count=count * n).reshape(count, n)
    sums = np.zeros(kmax)
    scale = math.sqrt(p / n)
    for lo in range(0, count, chunk):
        sub = idx[lo:lo + chunk]
        E = scale * (G[sub[:, :, None], sub[:, None, :]] - np.eye(n))
        power = E
        for k in range(1, kmax + 1):
            sums[k - 1] += np.einsum("bii->", power).real
            power = power @ E
    return [float(s / (count * n)) for s in sums]


def strict_closed_classes(k: int) -> list[tuple[int, ...]]:
    """First-visit words s_0..s_k with s_0 = s_k = 1 and no repeated neighbours."""
    out = []

    def grow(word: list[int], top: int) -> None:
        if len(word) == k:
            if word[-1] != 1:
                out.append(tuple(word + [1]))
            return
        for v in range(1, top + 2):
            if v != word[-1]:
                grow(word + [v], max(top, v))

    grow([1], 1)
    return out


def is_tree_class(steps: tuple[int, ...]) -> bool:
    """Simple graph is a tree and each edge is walked once in each direction."""
    walked = list(zip(steps, steps[1:]))
    edges = {frozenset(e) for e in walked}
    return len(edges) == max(steps) - 1 and all(
        walked.count((u, v)) == 1 and walked.count((v, u)) == 1
        for u, v in (tuple(e) for e in edges)
    )


def check_paths_verify(prefix, k: int, ladder: list[int]) -> list[str]:
    """The classes CSV against an own enumeration, and the estimates' row count."""
    problems = []
    classes = strict_closed_classes(k)
    rows = _read_rows(f"{prefix}.classes.csv")
    listed = {r[0]: r for r in rows[1:]}
    want = {"-".join(map(str, c)): c for c in classes}
    if set(listed) != set(want) or len(rows) - 1 != len(want):
        problems.append(f"classes.csv lists {len(rows) - 1} classes, expected {len(want)}")
        return problems
    trees = [name for name, c in want.items() if is_tree_class(c)]
    if len(trees) != math.comb(k, k // 2) // (k // 2 + 1):
        problems.append(f"{len(trees)} tree classes, not Catalan({k // 2})")
    if sorted(name for name, r in listed.items() if r[3] == "1") != sorted(trees):
        problems.append("classes.csv marks the wrong classes as trees")
    words = {listed[name][4] for name in trees}
    if len(words) != len(trees) or any(
        w.count("+") != w.count("-") or any(
            w[:i].count("-") > w[:i].count("+") for i in range(len(w))
        ) for w in words
    ):
        problems.append("tree Dyck words are not distinct balanced words")
    usable = sum(1 for c in classes if max(c) <= 4)
    estimates = _read_rows(f"{prefix}.estimates.csv")
    if len(estimates) - 1 != usable * len(ladder):
        problems.append(f"estimates.csv has {len(estimates) - 1} rows, "
                        f"expected {usable * len(ladder)}")
    return problems
