"""Span tracing of lapctrl's public functions, done entirely from outside.

Each traced function is rebound, in every ``lapctrl`` module namespace that
holds it by name, to a wrapper that records one span: name, parent span,
start, the speed gauge's reading for the call and the order of the matrix
or graph it was given. Calls made between modules therefore nest, so self
time is a span's duration minus the durations of its direct children.
Durations are rescaled by the gauge exactly as operation times are, so they
compare with the end-to-end times. A ``Tracer`` lives in one worker for
one batch; ``TraceSummary`` adds up the batches in the parent and writes
the spans out at the end.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
from pathlib import Path

# (module, function) pairs, one per layer boundary the benchmark reports.
TRACED = (
    ("graph_core", "laplacian"),
    ("graph_core", "graph_from_json"),
    ("graph_core", "is_connected"),
    ("spectral", "eig_sym"),
    ("spectral", "eigenspaces"),
    ("controllability", "pbh_verdict"),
    ("controllability", "kalman_rank_exact"),
    ("controllability", "gramian_check"),
    ("controllability", "controllable_vertices"),
    ("compose", "composite"),
    ("compose", "chain_antiregular"),
    ("compose", "append_path"),
    ("compose", "predict_composite"),
    ("compose", "valid_chain_input"),
    ("cli", "main"),
)
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

# Functions whose distinct inputs are counted, to show repeated work.
KEYED = {"controllability.kalman_rank_exact", "spectral.eig_sym"}


def _order(args) -> int:
    """Order of the first argument when it is a matrix or a graph, else 0."""
    if not args:
        return 0
    first = args[0]
    shape = getattr(first, "shape", None)
    if shape:
        return int(shape[0])
    n = getattr(first, "n", None)
    return n if isinstance(n, int) else 0


def _input_key(args, kwargs) -> int:
    parts = []
    for a in list(args) + list(kwargs.values()):
        tobytes = getattr(a, "tobytes", None)
        parts.append((a.shape, str(a.dtype), tobytes()) if tobytes else repr(a))
    return hash(tuple(parts))


class Tracer:
    """Installs span-recording wrappers for one batch in one worker.

    A span is recorded as (name, parent index or -1, start, order, timing),
    timing being the gauge's reading for the call.
    """

    def __init__(self, gauge) -> None:
        self.gauge = gauge
        self.spans: list[tuple | None] = []
        self.keys: dict[str, set[int]] = {name: set() for name in KEYED}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, keys, gauge = self.spans, self._stack, self.keys.get(name), self.gauge

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_input_key(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            mark = gauge.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                timing = gauge.since(mark)
                stack.pop()
                spans[idx] = (name, parent, mark[0], _order(args), timing)

        return traced

    def install(self) -> None:
        """Rebind every traced function in each lapctrl module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "lapctrl" or key.startswith("lapctrl.")]
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"lapctrl.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def finish(self) -> dict:
        """The batch's spans as (name, parent, start_s, order, duration_s,
        self_s), times at the gauge's reference speed, and the number of
        distinct inputs of each keyed function. Call after the gauge has
        stopped, so every span has a sample after it."""
        durations = [self.gauge.reference_time(s[4]) for s in self.spans]
        child = [0.0] * len(self.spans)
        for span, d in zip(self.spans, durations):
            if span[1] >= 0:
                child[span[1]] += d
        spans = [(s[0], s[1], s[2], s[3], d, d - c)
                 for s, d, c in zip(self.spans, durations, child)]
        return {"spans": spans, "distinct": {name: len(seen) for name, seen in self.keys.items()}}


class TraceSummary:
    """Per-layer figures over the traced batches of a run."""

    def __init__(self, batches: list[dict]) -> None:
        self.batches = batches

    def summary(self) -> dict[str, float]:
        """calls and self_s per traced function; for keyed functions, the
        mean over batches of distinct inputs over calls within the batch."""
        out = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        fracs: dict[str, list[float]] = {name: [] for name in KEYED}
        for batch in self.batches:
            calls = collections.Counter(span[0] for span in batch["spans"])
            for span in batch["spans"]:
                out[f"{span[0]}.calls"] += 1
                out[f"{span[0]}.self_s"] += span[5]
            for name, distinct in batch["distinct"].items():
                if calls[name]:
                    fracs[name].append(distinct / calls[name])
        for name, values in fracs.items():
            out[f"{name}.distinct_frac"] = statistics.fmean(values) if values else 0.0
        return out

    def durations(self, name: str, order: int) -> list[float]:
        """Inclusive durations in seconds of the spans of one function on
        inputs of one order."""
        return [s[4] for b in self.batches for s in b["spans"] if s[0] == name and s[3] == order]

    def count(self) -> int:
        return sum(len(b["spans"]) for b in self.batches)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(TRACED_NAMES)
        index = {name: i for i, name in enumerate(names)}
        rows = [[k, index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                for k, b in enumerate(self.batches) for s in b["spans"]]
        payload = {"fields": ["batch", "name", "parent", "start_s", "order",
                              "duration_s", "self_s"],
                   "names": names, "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")))
