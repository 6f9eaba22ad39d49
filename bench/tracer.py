"""Call tracer that times the public functions of symjacobi from outside.

Every public function defined in a traced module is replaced, for the
duration of a `with Tracer(...)` block, by a wrapper that records a span.
The wrapper is installed on every binding of the function: the defining
module, modules that imported it by name (for example `suites` does
`from .core import eigenfunction_table`), the package namespace, and
module-level dicts such as `suites.SUITES`. Leaving the block restores the
original objects.

Spans nest through one stack per thread, so a span's self time is its
duration minus the durations of the spans it caused on the same thread.
Work a thread pool runs on behalf of a span is recorded in the worker's own
spans; the waiting parent counts that wall time as its own self time.

Some functions also carry computed counters, derived from their arguments
rather than measured: table cells, distinct table keys, rule nodes,
square-function kernel cells and report bytes written.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import threading
from time import perf_counter

import numpy as np

PACKAGE = "symjacobi"
MODULES = (
    "core",
    "basis",
    "operators",
    "norms",
    "squarefn",
    "witnesses",
    "suites",
    "reporting",
    "cli",
)

SUITE_NAMES = (
    "basis",
    "eigen",
    "potentials",
    "decomposition",
    "sobolev",
    "counterexample",
    "inclusion",
    "squarefn",
    "structure",
    "embed",
    "noninclusion",
    "schrodinger",
)

# Functions the per-layer metrics name. A name missing from the package
# (deleted by a later refactor) reads as zero calls instead of failing.
NAMED = {
    "core": ("eigenfunction_table", "jacobi_poly_table", "gauss_jacobi_rule", "symmetric_rule"),
    "basis": (
        "symm_eigenfunction_table",
        "eval_symm_expansion",
        "eval_halfline_expansion",
        "analyze",
    ),
    "norms": (
        "potential_norm",
        "sobolev_norm",
        "lp_norm",
        "random_band_limited",
        "truncated_lp_powers",
    ),
    "squarefn": ("square_function", "square_function_by_time_quadrature"),
    "suites": ("parallel_map",) + tuple(f"run_{s}" for s in SUITE_NAMES),
    "reporting": ("write_report", "emit_plots"),
    "cli": ("main",),
}

# Counters computed from arguments or results, with their units.
COUNTERS = {
    "core.eigenfunction_table.cells": "cells-computed",
    "core.gauss_jacobi_rule.nodes": "count",
    "squarefn.square_function.cells": "cells-computed",
    "reporting.bytes_written": "bytes",
}

# Modules reported as one sum over their public functions.
SUMMED = ("operators", "witnesses")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "uncounted")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.uncounted = 0


def _bound_arg(sig, args, kwargs, name):
    try:
        return sig.bind_partial(*args, **kwargs).arguments[name]
    except (TypeError, KeyError):
        return None


def _file_bytes(paths) -> int:
    if isinstance(paths, str):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths or () if os.path.isfile(p))


class Tracer:
    """Wraps the public functions of the MODULES of symjacobi while active."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {}
        self._table_keys: set = set()
        self._patches: list = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def _hooks(self, span: str, fn):
        """Counter hooks run before the call (on arguments) and after it (on the result)."""
        sig = inspect.signature(fn)
        stat = self.stats[span]

        def need(args, kwargs, name):
            value = _bound_arg(sig, args, kwargs, name)
            if value is None:
                with self._lock:
                    stat.uncounted += 1
            return value

        if span == "core.eigenfunction_table":

            def before(args, kwargs):
                n_top = need(args, kwargs, "n_top")
                params = need(args, kwargs, "params")
                theta = need(args, kwargs, "theta")
                if n_top is None or params is None or theta is None:
                    return
                th = np.ascontiguousarray(theta, dtype=float)
                self._count(span + ".cells", (int(n_top) + 1) * th.size)
                key = (
                    float(params.alpha),
                    float(params.beta),
                    int(n_top),
                    hashlib.blake2b(th.tobytes(), digest_size=16).digest(),
                )
                with self._lock:
                    self._table_keys.add(key)

            return before, None
        if span == "core.gauss_jacobi_rule":

            def before(args, kwargs):
                n = need(args, kwargs, "n_nodes")
                if n is not None:
                    self._count(span + ".nodes", int(n))

            return before, None
        if span == "squarefn.square_function":

            def before(args, kwargs):
                e = need(args, kwargs, "e")
                theta = need(args, kwargs, "theta")
                if e is None or theta is None:
                    return
                n = np.size(e.coeffs)
                self._count(span + ".cells", n * n * np.size(theta))

            return before, None
        if span in ("reporting.write_report", "reporting.emit_plots"):

            def after(result):
                self._count("reporting.bytes_written", _file_bytes(result))

            return None, after
        return None, None

    def _wrap(self, span: str, fn):
        self.stats[span] = _Stat()
        stat = self.stats[span]
        before, after = self._hooks(span, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _public_functions(self, module) -> dict:
        return {
            name: obj
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        }

    def __enter__(self) -> "Tracer":
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name, fn in self._public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        loaded = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._patches.append((value, key, item))
                            value[key] = originals[id(item)][1]
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def _stat(self, span: str) -> _Stat:
        return self.stats.get(span, _Stat())

    def functions(self) -> dict:
        """Every traced function: calls, inclusive seconds and self seconds."""
        return {
            span: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "uncounted": s.uncounted}
            for span, s in sorted(self.stats.items())
        }

    def metrics(self) -> dict:
        """Per-layer metrics by name, each as {"value", "unit"}."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for short, names in NAMED.items():
            for fn in names:
                span = f"{short}.{fn}"
                s = self._stat(span)
                if short == "suites" and fn.startswith("run_"):
                    put(f"suites.{fn[4:]}.s", s.total_s, "s")
                    continue
                put(f"{span}.calls", s.calls, "count")
                put(f"{span}.self_s", s.self_s, "s")
                put(f"{span}.s", s.total_s, "s")
        put("core.eigenfunction_table.distinct", len(self._table_keys), "count")
        for name, unit in COUNTERS.items():
            put(name, self.counters.get(name, 0), unit)
        for short in SUMMED:
            spans = [s for span, s in self.stats.items() if span.startswith(short + ".")]
            put(f"{short}.calls", sum(s.calls for s in spans), "count")
            put(f"{short}.self_s", sum(s.self_s for s in spans), "s")
        return out
