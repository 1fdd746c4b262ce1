"""Span tracing of the Fig. 7 layers, installed from outside the program.

Nothing under ``src/`` knows about this module.  A traced benchmark
process calls :func:`install` before it imports ``repro``; from then on
an import hook wraps each target module's public entry points the
moment the module finishes loading, so lazily imported layers are
covered too.  Every module execution is itself recorded as a
``cli.import`` span, which is how import time is measured wherever the
import happens.

A span is ``[name, start, end, parent, op, attrs]``: times come from
``time.perf_counter`` (system-wide, so a parent process can add a root
span around a traced child), ``parent`` is the enclosing span (the
fan-out span of the main thread for spans opened on worker threads),
``op`` is the operation id current when the span opened, and ``attrs``
holds counts taken at the same boundary.  Spans stay in memory and are
written out by :meth:`Tracer.dump` when the process ends.

:func:`self_times` turns spans into per-span self time: the span's
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import threading
from time import perf_counter

#: ``(module, class, method, span name)``.  The method is wrapped on the
#: class and on every subclass that overrides it.
METHOD_TARGETS = (
    ("repro.storage.database", "VibrationDatabase", "__init__", "storage.open"),
    ("repro.storage.database", "MeasurementStore", "query_arrays", "storage.query_arrays"),
    ("repro.storage.database", "MeasurementStore", "add_many", "storage.add_many"),
    ("repro.runtime.batch", "BatchPipeline", "transform", "runtime.transform"),
    ("repro.core.pipeline", "AnalysisPipeline", "preprocess", "core.preprocess"),
    ("repro.core.classify", "ZoneClassifier", "fit", "core.fit_classifier"),
    ("repro.core.classify", "ZoneClassifier", "decision_scores", "core.score_da"),
    ("repro.core.ransac", "RecursiveRANSAC", "fit", "core.ransac_fit"),
    ("repro.core.rul", "RULEstimator", "predict", "core.rul_predict"),
    ("repro.runtime.fleet", "FleetExecutor", "map_pumps", "runtime.fleet_map"),
    ("repro.analysis.engine", "VibrationAnalysisEngine", "run", "analysis.engine_run"),
)

#: ``(module, function, span name)``.  Every ``repro`` module that
#: imported the function by name gets the wrapper too.
FUNCTION_TARGETS = (
    ("repro.runtime.cache", "array_digest", "runtime.digest"),
    ("repro.core.rul", "learn_zone_d_threshold", "core.learn_threshold"),
    ("repro.analysis.reporting", "render_report", "analysis.render"),
    ("repro.analysis.backtest", "backtest_rul", "analysis.backtest"),
)

#: Counter probes: no span, only counts read at the call.
PROBE_FUNCTIONS = (("repro.core.peaks", "extract_harmonic_peaks_batch"),)
PROBE_METHODS = (("repro.runtime.incremental", "IncrementalPipelineSession", "run"),)

IMPORT_SPAN = "cli.import"

_WRAPPED = "__perfbench_original__"


class Tracer:
    """In-memory span recorder shared by all threads of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: op id stamped on spans opened from now on.
        self.op: str = "setup"
        #: When False the wrappers pass straight through (untraced ops).
        self.enabled = True
        #: op id -> counter name -> count (counts not tied to a span).
        self.counters: dict[str, dict[str, float]] = {}
        #: Targets that this version of the program does not have.
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str) -> list | None:
        """Open a span; None when disabled or re-entering the same layer."""
        if not self.enabled:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if parent[0] == name:
                return None
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(span)
        stack.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack().pop()

    def add(self, key: str, n: float) -> None:
        """Add a count to the innermost open span of this thread."""
        if not self.enabled:
            return
        stack = self._stack() or self._main_stack
        if not stack:
            self.count(key, n)
            return
        span = stack[-1]
        if span[5] is None:
            span[5] = {}
        span[5][key] = span[5].get(key, 0) + n

    def count(self, key: str, n: float) -> None:
        """Add a count to the current operation."""
        if not self.enabled:
            return
        per_op = self.counters.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + n

    def dump(self, path: str) -> None:
        """Write every closed span, the counters and missing targets."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                name,
                start,
                end,
                index[id(parent)] if parent is not None else -1,
                op,
                attrs,
            ]
            for name, start, end, parent, op, attrs in self.spans
            if end
        ]
        with open(path, "w") as fh:
            json.dump(
                {"spans": rows, "counters": self.counters, "missing": self.missing}, fh
            )


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """``fn`` inside a span; ``before``/``after`` add counts to it."""
    begin, end = tracer.begin, tracer.end
    if before is None and after is None:

        def traced(*args, **kwargs):
            span = begin(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

    else:

        def traced(*args, **kwargs):
            span = begin(name)
            if span is None:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if after is not None:
                span[5] = {**(span[5] or {}), **after(args, state, result)}
            return result

    functools.update_wrapper(traced, fn)
    setattr(traced, _WRAPPED, fn)
    return traced


# ----------------------------------------------------------------------
# Counts taken at span boundaries, from the program's public counters.
# ----------------------------------------------------------------------
def _after_query_arrays(args, state, result) -> dict:
    samples = result[3]
    return {"rows": int(samples.shape[0]), "mb": samples.nbytes / 1e6}


def _after_add_many(args, state, result) -> dict:
    rows = args[1] if len(args) > 1 else ()
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0}


def _before_transform(args):
    cache = getattr(args[0], "transform_cache", None)
    return (cache.hits, cache.misses) if cache is not None else (0, 0)


def _after_transform(args, state, result) -> dict:
    pipeline, rows_in = args[0], int(result[0].shape[0])
    cache = getattr(pipeline, "transform_cache", None)
    hits = cache.hits - state[0] if cache is not None else 0
    misses = cache.misses - state[1] if cache is not None else 0
    # Rows of the chunks that missed the chunk cache: exact whenever the
    # input fits one chunk, an upper bound otherwise.
    chunk = getattr(pipeline, "chunk_rows", rows_in) or rows_in
    rows = min(rows_in, misses * chunk) if hits + misses else rows_in
    return {"rows": rows, "cache_hits": hits, "cache_misses": misses}


SPAN_HOOKS = {
    "storage.query_arrays": (None, _after_query_arrays),
    "storage.add_many": (None, _after_add_many),
    "runtime.transform": (_before_transform, _after_transform),
}


def _probe_extract(tracer: Tracer, fn):
    def probed(rows, *args, **kwargs):
        tracer.add("rows_extracted", len(rows))
        return fn(rows, *args, **kwargs)

    functools.update_wrapper(probed, fn)
    setattr(probed, _WRAPPED, fn)
    return probed


def _probe_incremental(tracer: Tracer, fn):
    def probed(self, *args, **kwargs):
        hits, misses = self.row_hits, self.row_misses
        result = fn(self, *args, **kwargs)
        tracer.count("incremental_row_hits", self.row_hits - hits)
        tracer.count("incremental_row_misses", self.row_misses - misses)
        return result

    functools.update_wrapper(probed, fn)
    setattr(probed, _WRAPPED, fn)
    return probed


# ----------------------------------------------------------------------
# Import hook: patch targets as their modules load.
# ----------------------------------------------------------------------
class _Patcher:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: id(original function) -> wrapper, for by-name re-exports.
        self.replacements: dict[int, object] = {}
        self._scanned_with = -1

    def loaded(self, module) -> None:
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            return
        tracer = self.tracer
        for mod, fn_name, span in FUNCTION_TARGETS:
            if mod == name:
                self._patch_function(module, fn_name, lambda f, s=span: _wrap(tracer, f, s))
        for mod, fn_name in PROBE_FUNCTIONS:
            if mod == name:
                self._patch_function(module, fn_name, lambda f: _probe_extract(tracer, f))
        for mod, cls_name, method in PROBE_METHODS:
            if mod == name:
                self._patch_method(
                    module, cls_name, method, lambda f: _probe_incremental(tracer, f)
                )
        for mod, cls_name, method, span in METHOD_TARGETS:
            before, after = SPAN_HOOKS.get(span, (None, None))
            make = lambda f, s=span, b=before, a=after: _wrap(tracer, f, s, b, a)
            if mod == name:
                self._patch_method(module, cls_name, method, make)
            base = getattr(sys.modules.get(mod), cls_name, None)
            if isinstance(base, type):
                self._patch_overrides(module, base, method, make)
        if self._scanned_with != len(self.replacements):
            # A new by-name target appeared: swap it in every module
            # loaded so far (later modules pick the wrapper up on import).
            self._scanned_with = len(self.replacements)
            for other in list(sys.modules.values()):
                self._swap_reexports(other)
        else:
            self._swap_reexports(module)

    def _patch_function(self, module, fn_name: str, make) -> None:
        fn = getattr(module, fn_name, None)
        if not callable(fn):
            self.tracer.missing.append(f"{module.__name__}.{fn_name}")
            return
        if hasattr(fn, _WRAPPED):
            return
        wrapper = make(fn)
        setattr(module, fn_name, wrapper)
        self.replacements[id(fn)] = wrapper

    def _patch_method(self, module, cls_name: str, method: str, make) -> None:
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, "__dict__", {}).get(method)
        if not callable(fn):
            self.tracer.missing.append(f"{module.__name__}.{cls_name}.{method}")
            return
        if not hasattr(fn, _WRAPPED):
            setattr(cls, method, make(fn))

    @staticmethod
    def _patch_overrides(module, base: type, method: str, make) -> None:
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value is not base
                and value.__module__ == module.__name__
                and issubclass(value, base)
            ):
                fn = value.__dict__.get(method)
                if callable(fn) and not hasattr(fn, _WRAPPED):
                    setattr(value, method, make(fn))

    def _swap_reexports(self, module) -> None:
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            return
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            return
        for attr, value in list(namespace.items()):
            wrapper = self.replacements.get(id(value))
            if wrapper is not None and wrapper is not value:
                namespace[attr] = wrapper


class _TimedLoader:
    """Loader proxy: times module execution and patches on completion."""

    def __init__(self, loader, tracer: Tracer, patcher: _Patcher):
        self._loader = loader
        self._tracer = tracer
        self._patcher = patcher

    def create_module(self, spec):
        span = self._tracer.begin(IMPORT_SPAN)
        try:
            return self._loader.create_module(spec)
        finally:
            if span is not None:
                self._tracer.end(span)

    def exec_module(self, module) -> None:
        span = self._tracer.begin(IMPORT_SPAN)
        try:
            self._loader.exec_module(module)
        finally:
            if span is not None:
                self._tracer.end(span)
        self._patcher.loaded(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _TimedFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer, patcher: _Patcher):
        self._tracer = tracer
        self._patcher = patcher

    def find_spec(self, fullname, path, target=None):
        for finder in sys.meta_path:
            if finder is self:
                continue
            find = getattr(finder, "find_spec", None)
            if find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is not None and hasattr(loader, "exec_module"):
            spec.loader = _TimedLoader(loader, self._tracer, self._patcher)
        return spec


def install() -> Tracer:
    """Arm tracing for this process; call before ``repro`` is imported."""
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise RuntimeError("install the tracer before repro is imported")
    tracer = Tracer()
    sys.meta_path.insert(0, _TimedFinder(tracer, _Patcher(tracer)))
    return tracer


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the union of child intervals.

    Children on worker threads may overlap each other; only the union of
    their intervals (clipped to the parent) counts as covered.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(i, ())
        ):
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        out.append(max(0.0, (end - start) - covered))
    return out
