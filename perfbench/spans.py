"""Spans around calls into robpcount's public functions, and the per-layer
figures derived from them.

A span is a list ``[name, start, end, parent, op, counts]``: ``name`` is
``module.function``, ``start``/``end`` are ``time.perf_counter()`` readings
(CLOCK_MONOTONIC on Linux, so spans from different processes share a time
base), ``parent`` is the index of the enclosing span in the same process or
None, ``op`` is the benchmark operation id, and ``counts`` holds work counts
measured at the same boundary (vertices, JSON bytes, inputs, cells).

Spans stay in memory while the run lasts and are turned into figures once
it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# "module.function" -> the per-layer time metric its self time counts toward.
# Per-element and pointwise helpers (robp.evaluate, streaming.mg_update,
# potential.phi_*, bounds.gen_binom) get no span: one span per stream element
# or grid point would cost more than the work it measures. `exact` is
# arithmetic inside the other layers and gets no span of its own.
TRACED = {
    "constructions.exact_counter": "constructions.build_s",
    "constructions.rounded_counter": "constructions.build_s",
    "constructions.tribes": "constructions.build_s",
    "constructions.constant_program": "constructions.build_s",
    "constructions.tribes_plan": "constructions.build_s",
    "constructions.rounding_plan": "constructions.build_s",
    "constructions.rounded_counter_width_bound": "constructions.build_s",
    "robp.validate": "robp.validate_s",
    "robp.read_robp": "robp.read_s",
    "robp.write_robp": "robp.write_s",
    "labeling.compute_labels": "labeling.compute_labels_s",
    "labeling.verify": "labeling.verify_s",
    "labeling.minimal_error": "labeling.minimal_error_s",
    "potential.profile_counter": "potential.profile_s",
    "potential.profile_parallel": "potential.profile_s",
    "potential.audit_growth_counter": "potential.audit_s",
    "potential.audit_final_counter": "potential.audit_s",
    "potential.audit_growth_parallel": "potential.audit_s",
    "potential.audit_final_parallel": "potential.audit_s",
    "oracle.frontier": "oracle.frontier_s",
    "oracle.system_to_robp": "oracle.frontier_s",
    "oracle.frontier_brute_force": "oracle.brute_force_s",
    "oracle.exhaustive_verify": "oracle.exhaustive_s",
    "oracle.random_robp": "oracle.random_robp_s",
    "bounds.thm_main_feasible": "bounds.busy_s",
    "bounds.lb_small_w": "bounds.busy_s",
    "bounds.lb_standard": "bounds.busy_s",
    "bounds.kpar_lower_bound": "bounds.busy_s",
    "bounds.min_consistent_width": "bounds.busy_s",
    "bounds.max_ruled_out_error": "bounds.busy_s",
    "bounds.binary_error_lower_bound": "bounds.busy_s",
    "bounds.tightness_report": "bounds.busy_s",
    "streaming.mg_run": "streaming.mg_run_s",
}


def painted_cells_counter(lp) -> int:
    """Cells the counter profile paints, computed from the label arrays: the
    summed volume of the rectangles whose clipped corner value exceeds their
    low corner's coordinate sum (the rectangles the profile keeps)."""
    total = 0
    for t in range(lp.p.n + 1):
        lo, hi = (a.astype(np.int64) for a in lp.layer_rectangles(t))
        keep = np.minimum(hi.sum(axis=1), t) > lo.sum(axis=1)
        total += int((hi[keep] - lo[keep] + 1).prod(axis=1).sum())
    return total


def painted_cells_parallel(lp) -> int:
    """Cells the parallel profile paints: kept rectangles clipped to the
    box {0..floor(n/10)}**k, from layer floor(n/10) on."""
    n = lp.p.n
    side = n // 10 + 1
    total = 0
    for t in range(n // 10, n + 1):
        lo, hi = (a.astype(np.int64) for a in lp.layer_rectangles(t))
        keep = (lo <= side - 1).all(axis=1) & (hi.sum(axis=1) > lo.sum(axis=1))
        clipped = np.minimum(hi[keep], side - 1)
        total += int((clipped - lo[keep] + 1).prod(axis=1).sum())
    return total


def _vertices(args, kwargs, result):
    return {"vertices": sum(result.layer_sizes)}


# "module.function" -> counts taken from its arguments and result. They are
# taken by Tracer.take_counts once the traced work is over, so counting (the
# painted cells above all) is in neither the span nor the round's wall time.
COUNTS = {
    "constructions.exact_counter": _vertices,
    "constructions.rounded_counter": _vertices,
    "constructions.tribes": _vertices,
    "constructions.constant_program": _vertices,
    "robp.read_robp": _vertices,
    "robp.write_robp": lambda a, k, r: {"bytes": len(r)},
    "oracle.exhaustive_verify": lambda a, k, r: {"inputs": a[0].alphabet.size ** a[0].n},
    "potential.profile_counter": lambda a, k, r: {"cells": painted_cells_counter(a[0])},
    "potential.profile_parallel": lambda a, k, r: {"cells": painted_cells_parallel(a[0])},
    "streaming.mg_run": lambda a, k, r: {"elements": r.n_seen},
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._pending: list[tuple] = []  # (span, count function, args, kwargs, result)

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self._pending.append((span, count, args, kwargs, result))
            return result

        return traced

    def take_counts(self):
        """Fill in the counts of the spans recorded so far and release the
        arguments and results held for them."""
        for span, count, args, kwargs, result in self._pending:
            span[5] = count(args, kwargs, result)
        self._pending.clear()

    def install(self):
        """Replace every reference to a traced function held by a loaded
        robpcount module (re-exports and `from .x import f` names included)
        with its wrapper. Returns a function that puts the originals back."""
        wrappers = {}
        for name in TRACED:
            module, func = name.split(".")
            fn = getattr(sys.modules.get(f"robpcount.{module}"), func, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "robpcount" or mod_name.startswith("robpcount.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))

        def restore():
            for mod, attr, value in patched:
                setattr(mod, attr, value)

        return restore


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, each clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.
    Children may overlap each other; the union is subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered_length(children[i], s[1], s[2]) for i, s in enumerate(spans)]


def layer_figures(span_groups) -> dict[str, float]:
    """Per-layer figures from spans. `span_groups` is a list of span lists,
    one per process; parent indices refer to spans of the same group."""
    time_s = defaultdict(float)
    counts = Counter()
    labeling_calls = 0
    for spans in span_groups:
        for span, own in zip(spans, self_times(spans)):
            layer = span[0].split(".")[0]
            time_s[TRACED[span[0]]] += own
            labeling_calls += layer == "labeling"
            for key, value in (span[5] or {}).items():
                counts[layer, key] += value
    read_vertices = counts["robp", "vertices"]
    cells = counts["potential", "cells"]
    out = {metric: time_s[metric] for metric in sorted(set(TRACED.values()))}
    out.update(
        {
            "constructions.vertices": counts["constructions", "vertices"],
            "robp.json_mb": counts["robp", "bytes"] / 1e6,
            "robp.read_us_per_vertex": time_s["robp.read_s"] * 1e6 / read_vertices if read_vertices else 0.0,
            "labeling.calls": labeling_calls,
            "potential.painted_cells": cells,
            "potential.ns_per_cell": time_s["potential.profile_s"] * 1e9 / cells if cells else 0.0,
            "oracle.inputs": counts["oracle", "inputs"],
            "streaming.elements": counts["streaming", "elements"],
        }
    )
    return out
