"""Tracing from outside the library: spans around each layer's public calls.

`Tracer` replaces each function in TARGETS by a timing wrapper at every
place the package binds it (the defining module and every module that
imported it by name), records one span per call in memory, and puts the
original objects back on exit. `layer_metrics` turns the spans into the
per-layer totals the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

TARGETS = {
    "cli": ("main",),
    "network": ("load_network", "validate_network"),
    "dioid": ("quasi_inverse", "dioid_power", "dioid_product"),
    "methods": (
        "run_method", "reciprocal", "nonreciprocal", "semi_reciprocal", "intermediate",
        "single_linkage", "graft_rnr", "graft_rrmax", "graft_rr_invalid", "convex_combination",
    ),
    "hierarchy": ("validate_ultrametric", "to_dendrogram", "cut_at_resolution"),
    "exports": ("newick", "dendrogram_json", "matrix_csv", "partition_json", "partition_text", "threshold_dot"),
}
LAYERS = tuple(TARGETS)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "error", "n", "changed", "nbytes")

    def __init__(self, name: str, layer: str, parent: int, job: int):
        self.name, self.layer, self.parent, self.job = name, layer, parent, job
        self.start = self.end = 0.0
        self.error = self.changed = False
        self.n = self.nbytes = 0

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job]


class Tracer:
    """Context manager that traces calls into dioidclust while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"dioidclust.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        for modname, module in list(sys.modules.items()):
            if modname != "dioidclust" and not modname.startswith("dioidclust."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            # Bookkeeping after the span closes is charged to the caller.
            if name == "dioid.dioid_product":
                span.n = result.shape[0]
                span.changed = not np.array_equal(result, np.asarray(args[0], dtype=float))
            elif name == "network.load_network":
                source = args[0] if args else kwargs["source"]
                span.nbytes = os.fstat(source.fileno()).st_size if hasattr(source, "fileno") else len(source)
            elif layer == "exports":
                span.nbytes = len(result.encode("utf-8"))
            elif name == "cli.main" and result != 0:
                span.error = True
            return result

        return traced


def _context(spans: list[Span], i: int) -> str:
    """Which dioid role encloses span i: closure, bounded_power, validation or none."""
    in_power = False
    p = spans[i].parent
    while p >= 0:
        name = spans[p].name
        if name == "dioid.quasi_inverse":
            return "closure"
        if name == "hierarchy.validate_ultrametric":
            return "validation"
        in_power = in_power or name == "dioid.dioid_power"
        p = spans[p].parent
    return "bounded_power" if in_power else "none"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over all spans (times in s, sizes in MB)."""
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_s", "errors")}
    for key in (
        "network.load_network.s", "network.load_network.calls", "network.input_mb", "network.validate_network.s",
        "dioid.closure.s", "dioid.closure.calls", "dioid.bounded_power.s", "dioid.bounded_power.calls",
        "dioid.dioid_product.s", "dioid.dioid_product.calls", "dioid.products.closure",
        "dioid.products.bounded_power", "dioid.products.validation", "dioid.ops_computed",
        "methods.run_method.calls", "methods.extreme_calls", "hierarchy.validate_ultrametric.s",
        "hierarchy.validate_ultrametric.calls", "hierarchy.to_dendrogram.self_s", "hierarchy.cut_at_resolution.s",
        "exports.s", "exports.mb_out",
    ):
        m[key] = 0.0
    useful = 0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        m[f"{s.layer}.self_s"] += own[i]
        m[f"{s.layer}.errors"] += s.error
        name = s.name
        if name == "network.load_network":
            m["network.load_network.s"] += dur
            m["network.load_network.calls"] += 1
            m["network.input_mb"] += s.nbytes / 1e6
        elif name == "network.validate_network":
            m["network.validate_network.s"] += dur
        elif name == "dioid.quasi_inverse":
            m["dioid.closure.s"] += dur
            m["dioid.closure.calls"] += 1
        elif name == "dioid.dioid_power" and _context(spans, i) != "closure":
            m["dioid.bounded_power.s"] += dur
            m["dioid.bounded_power.calls"] += 1
        elif name == "dioid.dioid_product":
            m["dioid.dioid_product.s"] += dur
            m["dioid.dioid_product.calls"] += 1
            m["dioid.ops_computed"] += 2 * s.n ** 3
            role = _context(spans, i)
            if role != "none":
                m[f"dioid.products.{role}"] += 1
            useful += role == "closure" and s.changed
        elif name == "methods.run_method":
            m["methods.run_method.calls"] += 1
        elif name in ("methods.reciprocal", "methods.nonreciprocal"):
            m["methods.extreme_calls"] += 1
        elif name == "hierarchy.validate_ultrametric":
            m["hierarchy.validate_ultrametric.s"] += dur
            m["hierarchy.validate_ultrametric.calls"] += 1
        elif name == "hierarchy.to_dendrogram":
            m["hierarchy.to_dendrogram.self_s"] += own[i]
        elif name == "hierarchy.cut_at_resolution":
            m["hierarchy.cut_at_resolution.s"] += dur
        if s.layer == "exports":
            m["exports.s"] += dur
            m["exports.mb_out"] += s.nbytes / 1e6
    product_s = m["dioid.dioid_product.s"]
    m["dioid.gops_per_s"] = m["dioid.ops_computed"] / product_s / 1e9 if product_s else 0.0
    closure_products = m["dioid.products.closure"]
    m["dioid.closure.useful_product_ratio"] = useful / closure_products if closure_products else 0.0
    return m


def unit(name: str) -> str:
    if name.endswith("gops_per_s"):
        return "Gop/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if "mb" in name.rsplit(".", 1)[-1].split("_"):
        return "MB"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def job_closure_gap(spans: list[Span]) -> float:
    """Largest per-job |sum of self times - root span duration|, in s."""
    own = self_times(spans)
    total: dict[int, float] = {}
    root: dict[int, float] = {}
    for i, s in enumerate(spans):
        total[s.job] = total.get(s.job, 0.0) + own[i]
        if s.parent < 0:
            root[s.job] = root.get(s.job, 0.0) + (s.end - s.start)
    return max((abs(total[j] - root.get(j, 0.0)) for j in total), default=0.0)
