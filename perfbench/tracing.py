"""Span tracing by rebinding names from the outside.

A traced round replaces selected functions with timing wrappers, in the
namespace where their caller looks them up (a module global, a class
attribute, or ``scipy.optimize.linprog``, which ``tropcay.lp`` imports
afresh on every call).  The library itself is not edited.  Spans
(name, start, end, parent) are kept in memory and dumped when the round
ends; self times and counts are derived from them.

Every ``.s`` metric is the self time of the spans of that name, so the
self times of all span names plus ``cli.self.s`` (whatever no span
covers: CLI code, unwrapped library code and the benchmark's glue) add
up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass

# (span name, module, class or None, attribute, kind).  kind is "span"
# (timed), "count" (calls counted only, for hot helpers whose timing
# would cost more than they do), or "generator" (each resumption of the
# generator is a span).  Private boundaries are marked with a leading
# underscore in the attribute and are the documented exception to
# "public functions only".
TARGETS = (
    ("geometry.regular_subdivision", "tropcay.tropical", None, "regular_subdivision", "span"),
    ("geometry.solve_rational", "tropcay.geometry", None, "solve_rational", "count"),
    ("geometry.placing", "tropcay.triangulation", None, "placing_cells", "span"),
    ("geometry.placing", "tropcay.geometry", None, "placing_cells", "span"),
    ("triangulation.neighbors", "tropcay.triangulation", "FlipEngine", "neighbors", "span"),
    ("triangulation.canonical", "tropcay.triangulation", "RelabelContext", "canonical", "span"),
    ("triangulation.regularity_rows", "tropcay.triangulation", "FlipEngine", "regularity_rows", "span"),
    ("triangulation.unimodularity", "tropcay.triangulation", "Triangulation", "make", "span"),
    ("triangulation.unimodularity", "tropcay.tropical", None, "normalized_volume", "span"),
    ("lp.exact_verify", "tropcay.triangulation", None, "strict_homogeneous_feasible", "span"),
    ("lp.float", "scipy.optimize", None, "linprog", "span"),
    ("lp.exact_simplex", "tropcay.lp", None, "strict_lp_feasible", "span"),
    ("enumeration.loop", "tropcay.enumeration", "Enumerator", "run", "generator"),
    ("enumeration.checkpoint.write", "tropcay.enumeration", "Enumerator", "_write_checkpoint", "span"),
    ("enumeration.checkpoint.load", "tropcay.cli", None, "load_checkpoint", "span"),
    ("tropical.mixed_subdivision", "tropcay.cli", None, "mixed_subdivision", "span"),
    ("tropical.mixed_subdivision", "tropcay.tropical", None, "mixed_subdivision", "span"),
    ("tropical.dual_curve", "tropcay.cli", None, "dual_curve_3d", "span"),
    ("tropical.dual_curve", "tropcay.cli", None, "dual_curve_planar", "span"),
    ("tropical.dual_curve", "tropcay.tropical", None, "dual_curve_3d", "span"),
    ("graphs.canonical_form", "tropcay.graphs", None, "canonical_form", "span"),
    ("graphs.add", "tropcay.graphs", "ClassTable", "add", "count"),
    ("formats.parse", "tropcay.cli", None, "load_json", "span"),
    ("formats.parse", "tropcay.cli", None, "config_from_dict", "span"),
    ("formats.parse", "tropcay.cli", None, "polynomial_terms_from_dict", "span"),
    ("formats.parse", "tropcay.cli", None, "parse_triangulation_line", "span"),
    ("formats.parse", "tropcay.formats", None, "text_to_cells", "span"),
    ("formats.output", "tropcay.cli", None, "save_json", "span"),
    ("formats.output", "tropcay.cli", None, "report_to_dict", "span"),
    ("formats.output", "tropcay.cli", None, "class_table_to_dict", "span"),
    ("formats.output", "tropcay.cli", None, "atlas_text", "span"),
    ("formats.output", "tropcay.cli", None, "graph_to_dot", "span"),
    ("formats.output", "tropcay.cli", None, "triangulation_line", "span"),
)

# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = (
    ("geometry.regular_subdivision.calls", "count", "lower"),
    ("geometry.regular_subdivision.s", "s", "lower"),
    ("geometry.solve_rational.calls", "count", "lower"),
    ("geometry.placing.s", "s", "lower"),
    ("triangulation.neighbors.calls", "count", "lower"),
    ("triangulation.neighbors.s", "s", "lower"),
    ("triangulation.flips_per_node", "ratio", "lower"),
    ("triangulation.canonical.calls", "count", "lower"),
    ("triangulation.canonical.s", "s", "lower"),
    ("triangulation.regularity_rows.calls", "count", "lower"),
    ("triangulation.regularity_rows.s", "s", "lower"),
    ("triangulation.rows_per_check", "ratio", "lower"),
    ("triangulation.unimodularity.s", "s", "lower"),
    ("lp.checks", "count", "lower"),
    ("lp.s", "s", "lower"),
    ("lp.float.calls", "count", "lower"),
    ("lp.float.s", "s", "lower"),
    ("lp.float_accepted", "count", "higher"),
    ("lp.gordan_certified", "count", "higher"),
    ("lp.exact_fallback", "count", "lower"),
    ("lp.fallback_ratio", "ratio", "lower"),
    ("lp.exact_simplex.s", "s", "lower"),
    ("lp.exact_verify.s", "s", "lower"),
    ("enumeration.visited", "count", "lower"),
    ("enumeration.dedup_hit_ratio", "ratio", "lower"),
    ("enumeration.regular_ratio", "ratio", "higher"),
    ("enumeration.loop_self.s", "s", "lower"),
    ("enumeration.checkpoint.writes", "count", "lower"),
    ("enumeration.checkpoint.write_s", "s", "lower"),
    ("enumeration.checkpoint.bytes", "B", "lower"),
    ("enumeration.checkpoint.load_s", "s", "lower"),
    ("tropical.mixed_subdivision.calls", "count", "lower"),
    ("tropical.mixed_subdivision.s", "s", "lower"),
    ("tropical.dual_curve.calls", "count", "lower"),
    ("tropical.dual_curve.s", "s", "lower"),
    ("graphs.canonical_form.calls", "count", "lower"),
    ("graphs.canonical_form.s", "s", "lower"),
    ("graphs.forms_per_add", "ratio", "lower"),
    ("formats.parse.s", "s", "lower"),
    ("formats.output.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.items_per_s", "items/s", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# Self-time metric -> span names whose self time it sums.  Together with
# cli.self.s these partition the traced wall time.
SELF_TIME_METRICS = {
    "geometry.regular_subdivision.s": ("geometry.regular_subdivision",),
    "geometry.placing.s": ("geometry.placing",),
    "triangulation.neighbors.s": ("triangulation.neighbors",),
    "triangulation.canonical.s": ("triangulation.canonical",),
    "triangulation.regularity_rows.s": ("triangulation.regularity_rows",),
    "triangulation.unimodularity.s": ("triangulation.unimodularity",),
    "lp.s": ("lp.exact_verify", "lp.float", "lp.exact_simplex"),
    "enumeration.loop_self.s": ("enumeration.loop",),
    "enumeration.checkpoint.write_s": ("enumeration.checkpoint.write",),
    "enumeration.checkpoint.load_s": ("enumeration.checkpoint.load",),
    "tropical.mixed_subdivision.s": ("tropical.mixed_subdivision",),
    "tropical.dual_curve.s": ("tropical.dual_curve",),
    "graphs.canonical_form.s": ("graphs.canonical_form",),
    "formats.parse.s": ("formats.parse",),
    "formats.output.s": ("formats.output",),
}


@dataclass
class _Binding:
    owner: object
    attr: str
    original: object  # the raw attribute, e.g. the classmethod object


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers of ``TARGETS``, records spans, restores names."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.enumeration_stats: dict | None = None
        self._stack: list[int] = []
        self._bindings: list[_Binding] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return nid

    def _open(self, nid: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, func):
        nid = self._name_id(name)
        tracer = self
        before_hook, after_hook = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            before = before_hook(tracer) if before_hook else None
            index = tracer._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if after_hook:
                after_hook(tracer, before, args, result)
            return result

        return traced

    def _count_wrapper(self, name, func):
        self._name_id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return counted

    def _generator_wrapper(self, name, func):
        nid = self._name_id(name)
        tracer = self

        def traced(enumerator, *args, **kwargs):
            tracer.calls[name] += 1
            visited_before = len(enumerator.visited)
            gen = func(enumerator, *args, **kwargs)
            try:
                while True:
                    index = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item
            finally:
                gen.close()
                tracer.count("enumeration.visited_growth", len(enumerator.visited) - visited_before)
                tracer.enumeration_stats = enumerator.stats()

        return traced

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for name, module_name, class_name, attr, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                self._name_id(name)
                continue
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if kind == "span":
                wrapped = self._span_wrapper(name, func)
            elif kind == "count":
                wrapped = self._count_wrapper(name, func)
            else:
                wrapped = self._generator_wrapper(name, func)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._bindings.append(_Binding(owner, attr, raw))

    def restore(self) -> None:
        for binding in reversed(self._bindings):
            setattr(binding.owner, binding.attr, binding.original)
        self._bindings = []

    # -- results -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: 0.0 for name in self.names}
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            out[self.names[nid]] += (end - start) - child_time[i]
        return out

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced round; run.py adds the throughputs."""
        selfs = self.self_times()
        calls = self.calls
        counts = self.counts
        m: dict[str, float] = {}
        for metric, span_names in SELF_TIME_METRICS.items():
            m[metric] = sum(selfs.get(n, 0.0) for n in span_names)
        m["cli.self.s"] = wall_s - sum(m.values())
        m["trace.wall_s"] = wall_s

        m["geometry.regular_subdivision.calls"] = calls.get("geometry.regular_subdivision", 0)
        m["geometry.solve_rational.calls"] = calls.get("geometry.solve_rational", 0)

        m["triangulation.neighbors.calls"] = calls.get("triangulation.neighbors", 0)
        m["triangulation.flips_per_node"] = _ratio(
            counts.get("triangulation.flips", 0), m["triangulation.neighbors.calls"]
        )
        m["triangulation.canonical.calls"] = calls.get("triangulation.canonical", 0)
        m["triangulation.regularity_rows.calls"] = calls.get("triangulation.regularity_rows", 0)
        m["triangulation.rows_per_check"] = _ratio(
            counts.get("triangulation.rows", 0), m["triangulation.regularity_rows.calls"]
        )

        m["lp.checks"] = calls.get("lp.exact_verify", 0)
        m["lp.float.calls"] = calls.get("lp.float", 0)
        m["lp.float.s"] = selfs.get("lp.float", 0.0)
        m["lp.float_accepted"] = counts.get("lp.float_accepted", 0)
        m["lp.gordan_certified"] = counts.get("lp.gordan_certified", 0)
        m["lp.exact_fallback"] = counts.get("lp.exact_fallback", 0)
        m["lp.fallback_ratio"] = _ratio(m["lp.exact_fallback"], m["lp.checks"])
        m["lp.exact_simplex.s"] = selfs.get("lp.exact_simplex", 0.0)
        m["lp.exact_verify.s"] = m["lp.s"] - m["lp.float.s"] - m["lp.exact_simplex.s"]

        stats = self.enumeration_stats or {}
        m["enumeration.visited"] = stats.get("visited", 0)
        canon = m["triangulation.canonical.calls"]
        hits = canon - counts.get("enumeration.visited_growth", 0)
        m["enumeration.dedup_hit_ratio"] = _ratio(hits, canon)
        m["enumeration.regular_ratio"] = _ratio(stats.get("regular", 0), stats.get("visited", 0))
        m["enumeration.checkpoint.writes"] = counts.get("enumeration.checkpoint.writes", 0)
        m["enumeration.checkpoint.bytes"] = counts.get("enumeration.checkpoint.bytes", 0)

        m["tropical.mixed_subdivision.calls"] = calls.get("tropical.mixed_subdivision", 0)
        m["tropical.dual_curve.calls"] = calls.get("tropical.dual_curve", 0)
        m["graphs.canonical_form.calls"] = calls.get("graphs.canonical_form", 0)
        m["graphs.forms_per_add"] = _ratio(m["graphs.canonical_form.calls"], calls.get("graphs.add", 0))
        return m


# -- per-span hooks: before(tracer) -> state; after(tracer, state, args, result) --


def _lp_before(tracer):
    return tracer.calls.get("lp.float", 0), tracer.calls.get("lp.exact_simplex", 0)


def _lp_after(tracer, before, _args, result):
    floats = tracer.calls.get("lp.float", 0) - before[0]
    exact = tracer.calls.get("lp.exact_simplex", 0) - before[1]
    if exact:
        tracer.count("lp.exact_fallback")
    elif floats:
        tracer.count("lp.float_accepted" if result[0] else "lp.gordan_certified")


def _flips_after(tracer, _before, _args, result):
    tracer.count("triangulation.flips", len(result))


def _rows_after(tracer, _before, _args, result):
    tracer.count("triangulation.rows", len(result))


def _checkpoint_after(tracer, _before, args, _result):
    enumerator = args[0]
    path = args[1] if len(args) > 1 and args[1] else enumerator.checkpoint_path
    if path is not None:
        tracer.count("enumeration.checkpoint.writes")
        tracer.count("enumeration.checkpoint.bytes", os.path.getsize(path))


_HOOKS = {
    "lp.exact_verify": (_lp_before, _lp_after),
    "triangulation.neighbors": (None, _flips_after),
    "triangulation.regularity_rows": (None, _rows_after),
    "enumeration.checkpoint.write": (None, _checkpoint_after),
}
