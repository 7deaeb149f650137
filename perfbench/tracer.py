"""Span tracer installed from outside the program, around its public functions.

``Tracer.install`` wraps every public function of the traced ``qsodyn``
modules and rebinds each module attribute that refers to one of them, so a
function imported by name into another module (``analysis`` imports ``run``
and ``run_collect`` from ``tensor``, ``verification`` imports most of
``analysis``) is traced at every call site.  The values of
``verification.SUITES`` are rebound as well.  Nothing under ``src/`` is
edited; ``uninstall`` restores every binding.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``run`` identifies the top-level
operation that caused it.  Spans are kept in memory and written out by
``write_spans`` once the run is over.  A few functions also count the work
they were given at the same boundary (orbit steps, starts, points), so the
per-layer ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("tensor", "analysis", "verification", "cli", "reports", "families")


def _arg(args, kwargs, index: int, name: str):
    """An argument given by position or by keyword (cheaper than binding a
    signature, whose cost would land in the caller's self time)."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_run_batch(args, kwargs, result):
    return {"orbit_steps": len(_arg(args, kwargs, 1, "xs")) * _arg(args, kwargs, 2, "n_steps")}


def _count_steps(args, kwargs, result):
    return {"orbit_steps": _arg(args, kwargs, 2, "n_steps")}


def _count_ergodicity(args, kwargs, result):
    return {"orbit_steps": int(list(_arg(args, kwargs, 2, "checkpoints"))[-1])}


def _count_omega(args, kwargs, result):
    return {"window_points": _arg(args, kwargs, 3, "window"),
            "clusters": len(result.cluster_points)}


def _count_iterate(args, kwargs, result):
    return {"points_recorded": len(result.points)}


def _count_fixed_points(args, kwargs, result):
    # find_fixed_points documents its starts: the m vertices, the center,
    # the m(m-1)/2 edge midpoints and ``starts`` seeded interior points.
    m = _arg(args, kwargs, 0, "t").m
    extra = _arg(args, kwargs, 1, "starts")
    if extra is None:
        find = sys.modules["qsodyn.analysis"].find_fixed_points
        extra = inspect.signature(find).parameters["starts"].default
    return {"starts": m + 1 + m * (m - 1) // 2 + extra, "solutions": len(result)}


def _count_lyapunov(args, kwargs, result):
    samples, horizon = _arg(args, kwargs, 2, "samples"), _arg(args, kwargs, 3, "horizon")
    return {"points_evaluated": samples * (horizon + 1)}


def _count_dumps(args, kwargs, result):
    return {"bytes": len(result.encode())}


# Work counters, keyed by traced name: each maps the arguments and the
# result of one call to the counts it adds.
COUNTERS = {
    "tensor.run_batch": _count_run_batch,
    "tensor.run": _count_steps,
    "tensor.run_collect": _count_steps,
    "tensor.iterate": _count_iterate,
    "analysis.ergodicity_probe": _count_ergodicity,
    "analysis.omega_estimate": _count_omega,
    "analysis.find_fixed_points": _count_fixed_points,
    "analysis.check_lyapunov": _count_lyapunov,
    "reports.dumps": _count_dumps,
}


def _public_functions(module):
    """Public callables defined in ``module`` itself (classes excluded)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Spans and work counts of the traced functions, while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = {}
        self.run = ""
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        self._rebound: list[tuple[dict, str, object]] = []   # (namespace, key, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {}) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of the traced modules and rebind them."""
        for short in TRACED_MODULES:
            module = importlib.import_module(f"qsodyn.{short}")
            for attr, fn in _public_functions(module):
                if id(fn) in self._wrapped:
                    continue
                self._wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [vars(module) for modname, module in list(sys.modules.items())
                      if modname == "qsodyn" or modname.startswith("qsodyn.")]
        namespaces.append(sys.modules["qsodyn.verification"].SUITES)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._rebound.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._rebound):
            namespace[key] = original
        self._rebound.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-function ``calls``, ``total_s``, ``self_s`` and work counts.

        ``self_s`` is a span's duration minus the time its direct children
        cover.  ``total_s`` counts only spans with no enclosing span of the
        same name, so recursion (``reports.to_jsonable``) is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["total_s"] += t1 - t0
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counts)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
