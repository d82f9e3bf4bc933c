"""Per-layer tracing of covmin from outside the package.

``Tracer.install`` replaces chosen covmin functions, in every covmin module
that binds them, with wrappers that record a span (name, start, end, parent)
or just count calls.  Spans are kept in memory; self time is a span's
duration minus the part its child spans cover.  Wrappers pass straight
through while ``enabled`` is false, which the benchmark uses to keep its own
checks out of the figures.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); a span name of None only counts calls
TRACED = [
    ("covmin.polytope", "_hull", "polytope.hull"),
    ("covmin.polytope", "coord_slice", "polytope.coord_slice"),
    ("covmin.polytope", "is_locally_anti_blocking", "polytope.lab_test"),
    ("covmin.families", "match_box", "families.recognize"),
    ("covmin.families", "match_weighted_simplex", "families.recognize"),
    ("covmin.families", "match_segment_sum", "families.recognize"),
    ("covmin.oracle", "covering_radius", "oracle.covering_radius"),
    ("covmin.oracle", "lattice_width", "oracle.lattice_width"),
    ("covmin.oracle", "successive_minima", "oracle.successive_minima"),
    ("covmin.oracle", "minima_sandwich", "oracle.minima_sandwich"),
    ("covmin.oracle", "upper_bound_reports", None),
    ("covmin.bounds", "intersection_bound", "bounds.intersection"),
    ("covmin.bounds", "projection_recursion", "bounds.projection_recursion"),
    ("covmin.bounds", "kl_bound", "bounds.kl"),
    ("covmin.linalg", "rank", None),
    ("covmin.linalg", "mat_solve", None),
    ("covmin.linalg", "mat_inverse", None),
]

# name, unit, better -- the order and units BENCHMARK.json lists
PER_LAYER = [
    ("polytope.hull_s", "s", "lower"),
    ("polytope.hull_builds", "count", "lower"),
    ("polytope.hull_points", "count", "lower"),
    ("polytope.coord_slice_s", "s", "lower"),
    ("polytope.coord_slice_calls", "count", "lower"),
    ("polytope.lab_test_s", "s", "lower"),
    ("families.recognize_s", "s", "lower"),
    ("families.recognize_calls", "count", "lower"),
    ("families.recognize_hits", "count", "higher"),
    ("oracle.covering_radius_s", "s", "lower"),
    ("oracle.covering_radius_calls", "count", "lower"),
    ("oracle.covering_radius_distinct", "count", "lower"),
    ("oracle.cells", "count", "lower"),
    ("oracle.cells_per_s", "1/s", "higher"),
    ("oracle.lattice_width_s", "s", "lower"),
    ("oracle.lattice_width_calls", "count", "lower"),
    ("oracle.successive_minima_s", "s", "lower"),
    ("oracle.successive_minima_calls", "count", "lower"),
    ("oracle.minima_sandwich_s", "s", "lower"),
    ("bounds.intersection_s", "s", "lower"),
    ("bounds.projection_recursion_s", "s", "lower"),
    ("bounds.kl_s", "s", "lower"),
    ("bounds.reports", "reports/call", "higher"),
    ("bounds.bracket_gap", "1", "lower"),
    ("linalg.rank_calls", "count", "lower"),
    ("linalg.mat_solve_calls", "count", "lower"),
    ("linalg.mat_inverse_calls", "count", "lower"),
    ("trace.queries_per_s", "1/s", "higher"),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.query = -1  # index of the query that spans belong to
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_bodies: set = set()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing wrappers -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "covmin" or name.startswith("covmin.")]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span or f"{module_name[7:]}.{attr}", span is not None)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, spanned):
        tracer = self

        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[name] += 1
                result = fn(*args, **kwargs)
                if tracer.enabled:
                    if name == "oracle.upper_bound_reports":
                        tracer.counts["bounds.reports"] += len(result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned_call(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "polytope.hull":
                tracer.counts["polytope.hull_points"] += len(args[0])
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.query))
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[span_id] = (name, start, end, parent, tracer.query)
                tracer.self_s[name] += duration - frame[1]
                tracer.inclusive_s[name] += duration
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.counts[name] += 1
            tracer._record(name, args, result)
            return result

        return spanned_call

    def _record(self, name, args, result):
        if name == "families.recognize" and result is not None:
            self.counts["families.recognize_hits"] += 1
        elif name == "oracle.covering_radius":
            self.counts["oracle.cells"] += result.cells_explored
            self.distinct_bodies.add((repr(args[0]), repr(args[1:])))

    # -- results -----------------------------------------------------------------

    def metrics(self, rounds: int, queries_per_s: float, bracket_gap) -> dict[str, float]:
        """Per-layer figures per round, named as in ``PER_LAYER``."""
        c, s = self.counts, self.self_s
        cr_s = s["oracle.covering_radius"]
        values = {
            "polytope.hull_s": s["polytope.hull"],
            "polytope.hull_builds": c["polytope.hull"],
            "polytope.hull_points": c["polytope.hull_points"],
            "polytope.coord_slice_s": s["polytope.coord_slice"],
            "polytope.coord_slice_calls": c["polytope.coord_slice"],
            "polytope.lab_test_s": s["polytope.lab_test"],
            "families.recognize_s": self.inclusive_s["families.recognize"],
            "families.recognize_calls": c["families.recognize"],
            "families.recognize_hits": c["families.recognize_hits"],
            "oracle.covering_radius_s": cr_s,
            "oracle.covering_radius_calls": c["oracle.covering_radius"],
            "oracle.covering_radius_distinct": len(self.distinct_bodies),
            "oracle.cells": c["oracle.cells"],
            "oracle.lattice_width_s": s["oracle.lattice_width"],
            "oracle.lattice_width_calls": c["oracle.lattice_width"],
            "oracle.successive_minima_s": s["oracle.successive_minima"],
            "oracle.successive_minima_calls": c["oracle.successive_minima"],
            "oracle.minima_sandwich_s": s["oracle.minima_sandwich"],
            "bounds.intersection_s": s["bounds.intersection"],
            "bounds.projection_recursion_s": s["bounds.projection_recursion"],
            "bounds.kl_s": s["bounds.kl"],
            "linalg.rank_calls": c["linalg.rank"],
            "linalg.mat_solve_calls": c["linalg.mat_solve"],
            "linalg.mat_inverse_calls": c["linalg.mat_inverse"],
        }
        values = {k: v / rounds for k, v in values.items()}
        # distinct bodies are counted over the whole run, so rounds repeat them
        values["oracle.covering_radius_distinct"] = len(self.distinct_bodies)
        values["oracle.cells_per_s"] = c["oracle.cells"] / cr_s if cr_s else 0.0
        calls = c["oracle.upper_bound_reports"]
        values["bounds.reports"] = c["bounds.reports"] / calls if calls else 0.0
        values["bounds.bracket_gap"] = float(bracket_gap)
        values["trace.queries_per_s"] = queries_per_s
        return values

    def write_spans(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, query in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "query": query}) + "\n")
