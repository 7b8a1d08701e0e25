"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is (name, start, end, parent, op, attrs): parent is the index of the
enclosing span or None, op the id of the workload op it belongs to, and attrs
a dict of sizes filled in by the caller (cells, nonzeros, basis size, ...).
Spans stay in memory until the run ends and are written out then.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# per-layer timing metric -> span name whose durations it sums
TIMED = {
    "oracle.build.s": "oracle.build",
    "oracle.homology_z.s": "oracle.homology_z",
    "oracle.homology_fp.s": "oracle.homology_fp",
    "oracle.theory_side.s": "oracle.theory_side",
    "cohomology.build_ring.s": "cohomology.build_ring",
    "cohomology.cup_length.s": "cohomology.cup_length",
    "cohomology.zcl.s": "cohomology.zcl",
    "invariants.report.s": "invariants.report",
    "invariants.tc_bounds.s": "invariants.tc_bounds",
    "steenrod.total_sq.s": "steenrod.total_sq",
    "fgl.t_series.s": "fgl.t_series",
    "splittings.verify_wedge.s": "splittings.verify_wedge",
    "splittings.cartesian_split.s": "splittings.cartesian_split",
    "cli.startup.s": "cli.startup",
    "cli.run.s": "cli.run",
}

# every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "oracle.build.s": "s",
    "oracle.build.calls": "count",
    "oracle.homology_z.s": "s",
    "oracle.homology_fp.s": "s",
    "oracle.cells": "count",
    "oracle.nonzeros": "count",
    "oracle.compare.calls": "count",
    "oracle.complex_reuse": "ratio",
    "oracle.theory_side.s": "s",
    "cohomology.build_ring.s": "s",
    "cohomology.basis_size": "count",
    "cohomology.cup_length.s": "s",
    "cohomology.zcl.s": "s",
    "invariants.report.s": "s",
    "invariants.tc_bounds.s": "s",
    "steenrod.total_sq.s": "s",
    "steenrod.total_sq.calls": "count",
    "fgl.t_series.s": "s",
    "splittings.verify_wedge.s": "s",
    "splittings.cartesian_split.s": "s",
    "cli.startup.s": "s",
    "cli.run.s": "s",
    "cli.self.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's attrs dict for sizes."""
        attrs: dict = {}
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, attrs)

    def add(self, name: str, start: float, end: float, attrs: dict | None = None):
        """Record a span timed elsewhere (e.g. a child process's start-up)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, start, end, parent, self.op, attrs or {}))

    def extend(self, spans: list, op) -> None:
        """Append spans recorded by another Tracer, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, _, attrs in spans:
            self.spans.append(
                (name, start, end, None if parent is None else parent + base, op, attrs)
            )


def self_times(spans: list) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children
    cover (children of one span never overlap: calls are sequential)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[i]
    return out


def layer_metrics(spans: list, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, derived from the spans alone."""
    total: dict[str, float] = {}
    for name, start, end, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    out = {metric: total.get(name, 0.0) for metric, name in TIMED.items()}

    builds = [a for n, _, _, _, _, a in spans if n == "oracle.build" and "cells" in a]
    compares = [a for n, _, _, _, _, a in spans if n == "oracle.compare" and "ok" in a]
    out["oracle.build.calls"] = len(builds)
    out["oracle.cells"] = sum(a["cells"] for a in builds)
    out["oracle.nonzeros"] = sum(a["nonzeros"] for a in builds)
    out["oracle.compare.calls"] = len(compares)
    out["oracle.complex_reuse"] = 1 - len(builds) / len(compares) if compares else 0.0
    out["cohomology.basis_size"] = sum(
        a.get("basis", 0) for n, _, _, _, _, a in spans if n == "cohomology.build_ring"
    )
    out["steenrod.total_sq.calls"] = sum(
        a.get("calls", 0) for n, _, _, _, _, a in spans if n == "steenrod.total_sq"
    )
    # cli.run minus the layer calls replayed for the same query
    replayed = 0.0
    replay_ids = {i for i, s in enumerate(spans) if s[0] == "cli.replay"}
    for name, start, end, parent, _, _ in spans:
        if parent in replay_ids:
            replayed += end - start
    out["cli.self.s"] = out["cli.run.s"] - replayed
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER_UNITS}


def write_jsonl(path: str, spans: list) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, op, attrs in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op, "attrs": attrs}
                )
                + "\n"
            )
