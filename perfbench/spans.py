"""Span recorder that wraps srip's public functions from outside the package.

Each wrapped call records a span: name, start, end, parent and thread.
Spans stay in memory; `Recorder.write` dumps them when the run ends.

Parents come from a per-thread stack.  A span opened on a worker thread
whose own stack is empty (a pool thread started by a CLI build or
campaign) takes the innermost open span of the main thread as parent,
because the benchmark drives one command at a time from the main thread.

Self time is a span's length minus the union of the intervals its child
spans cover.  Children on two pool threads may overlap in time, which is
why the union is used; the self times of concurrent siblings may then sum
to more than the wall time of their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function, span name, counter).  A counter is None or a pair
# (key, fn): fn maps (args, kwargs, result) to a number summed into the
# per-layer metric `<span name>.<key>`.
TARGETS = [
    ("operators", "heisenberg_operator", "operators.heisenberg_operator", None),
    ("operators", "weil_operator", "operators.weil_operator", None),
    ("linalg", "unitary_eigenbasis", "linalg.unitary_eigenbasis", None),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig",
     ("work_n3", lambda a, k, r: int(getattr(a[0], "shape", (0,))[0]) ** 3)),
    ("dictionaries", "nonsplit_tori", "dictionaries.nonsplit_tori", None),
    ("dictionaries", "build_heisenberg_dictionary", "dictionaries.build", None),
    ("dictionaries", "build_oscillator_dictionary", "dictionaries.build", None),
    ("dictionaries", "build_extended_oscillator_dictionary", "dictionaries.build", None),
    ("dictionaries", "coherence_report", "dictionaries.coherence_report",
     ("pairs", lambda a, k, r: int(r.cross_pairs_checked))),
    ("dictionaries", "save_dictionary", "dictionaries.save_dictionary",
     ("bytes", lambda a, k, r: os.path.getsize(a[0]))),
    ("dictionaries", "load_dictionary", "dictionaries.load_dictionary",
     ("bytes", lambda a, k, r: os.path.getsize(a[0]))),
    ("spectra", "sample_support", "spectra.sample_support", None),
    ("spectra", "gram_sample", "spectra.gram_sample", None),
    ("spectra", "ks_statistic", "spectra.ks_statistic", None),
    ("spectra", "run_spectrum", "spectra.run_spectrum", None),
    ("paths", "expected_weight", "paths.expected_weight", None),
    ("paths", "exact_spectral_moment", "paths.exact_spectral_moment", None),
    ("paths", "enumerate_path_classes", "paths.enumerate_path_classes", None),
    ("paths", "trajectory_table", "paths.trajectory_table", None),
    ("cli", "main", "cli.main", None),
]

_UNITS = {"calls": "count", "self_s": "s", "work_n3": "count", "pairs": "count",
          "bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for _, _, name, counter in TARGETS:
        for key in ("calls", "self_s") + ((counter[0],) if counter else ()):
            out[f"{name}.{key}"] = _UNITS[key]
        if name == "linalg.unitary_eigenbasis":
            out[f"{name}.useful_ratio"] = "ratio"
    out["cli.bytes_written"] = "bytes"
    out["trace.round_wall_s"] = "s"
    out["trace.round_cpu_s"] = "s"
    return out


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "phase", "attrs")

    def __init__(self, sid, name, parent, thread, phase):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.phase = phase
        self.attrs = None
        self.end = None
        self.start = time.perf_counter()


class Recorder:
    """Collects spans; `phase` tags what is recorded next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1].id if tid != self._main and main_stack else None
        span = Span(next(self._ids), name, parent, tid, self.phase)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    def _wrap(self, func, name: str, counter):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span.attrs = {counter[0]: counter[1](args, kwargs, result)}
                except (LookupError, TypeError, AttributeError, OSError, ValueError):
                    pass  # a changed signature loses the counter, never the call
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in each srip module that holds it by name.

        A function or module that no longer exists is skipped and reads as
        0 calls.
        """
        for module, func_name, span_name, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(f"srip.{module}"), func_name, None)
            except ImportError:
                continue
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "srip" or mod_name.startswith("srip.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer span figures for one set-up plus one average round.

        The figures that do not come from spans (`cli.bytes_written` and
        the `trace.*` round times) read 0 here; the caller fills them in.
        """
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        by_id = {s.id: s for s in self.spans}

        totals: dict[str, float] = defaultdict(float)

        def add(phase: str, key: str, value: float) -> None:
            totals[key] += value if phase == "setup" else value / rounds

        for s in self.spans:
            add(s.phase, f"{s.name}.calls", 1)
            add(s.phase, f"{s.name}.self_s", (s.end - s.start) - _covered(s, children[s.id]))
            for key, value in (s.attrs or {}).items():
                add(s.phase, f"{s.name}.{key}", value)
            if s.name == "linalg.hermitian_eig" and s.parent is not None \
                    and by_id[s.parent].name == "linalg.unitary_eigenbasis":
                add(s.phase, "hermitian_under_unitary", 1)

        out = {name: float(totals.get(name, 0.0)) for name in per_layer_units()}
        under = totals.get("hermitian_under_unitary", 0.0)
        out["linalg.unitary_eigenbasis.useful_ratio"] = (
            totals.get("linalg.unitary_eigenbasis.calls", 0.0) / under if under else 0.0
        )
        return out

    def write(self, path: str) -> None:
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread, "phase": s.phase, "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _covered(span: Span, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of child intervals, clipped to the span."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, span.start), min(hi, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
