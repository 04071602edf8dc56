"""Per-layer spans and work counters, installed from outside the program.

``install`` replaces public functions of the futakizero modules with timing
wrappers, including every other module's binding of the same function object
(``toric`` binds ``rref``, ``cli`` binds ``load_catalog``, and so on).  Spans
are aggregated as they close: calls, and self time, which is the span's
duration minus the union of the child spans it covers.  A span opened on a
worker thread with no open span of its own is a child of the innermost span
open on the main thread, which is how ``cli.evaluate_record`` spans from the
thread pool are subtracted from ``cli.main``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from math import comb

# (metric prefix, module, attribute, kind): "span" records calls and self
# time, "count" records calls only and leaves its time to the caller's span.
TARGETS = (
    ("catalog.load_catalog", "catalog", "load_catalog", "span"),
    ("catalog.validate", "catalog", "validate_case", "span"),
    ("polyring.parse_poly", "polyring", "parse_poly", "span"),
    ("polyring.in_span", "polyring", "in_span", "span"),
    ("parampoly.poly_gcd", "parampoly", "poly_gcd", "span"),
    ("parampoly.exact_div", "parampoly", "exact_div", "count"),
    ("symmetry.check_variety_invariant", "symmetry", "check_variety_invariant", "span"),
    ("symmetry.match_centers", "symmetry", "match_centers", "span"),
    ("symmetry.adjoint_matrix", "symmetry", "adjoint_matrix", "span"),
    ("character.analyze_polynomial_case", "character", "analyze_polynomial_case", "span"),
    ("character.vanishing_verdict", "character", "vanishing_verdict", "span"),
    ("ratlinalg.rref", "ratlinalg", "rref", "span"),
    ("toric.build", "toric", "ToricFamily.build", "span"),
    ("toric.from_halfspaces", "toric", "Polytope.from_halfspaces", "span"),
    ("toric.futaki_vector", "toric", "futaki_vector", "span"),
    ("toric.scan", "toric", "zero_locus_scan", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.evaluate_record", "cli", "evaluate_record", "span"),
)

# Reported as durations, not self time (see ``summary``).
NO_SELF_TIME = ("cli.evaluate_record",)


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = []          # (start, end) of direct child spans


def _union_ns(intervals):
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """Aggregated spans and counters of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self.calls = {}
        self.self_ns = {}
        self.counters = {}
        self.record_intervals = []   # (start, end) of cli.evaluate_record spans

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def count_call(self, name):
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    def span(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        frame = _Frame(name, time.perf_counter_ns())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            covered = _union_ns(frame.children) if frame.children else 0
            if parent is not None:
                parent.children.append((frame.start, end))
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + (end - frame.start - covered)
                if name == "cli.evaluate_record":
                    self.record_intervals.append((frame.start, end))

    def summary(self):
        """Raw per-process totals; ``merge`` and ``layer_metrics`` finish them."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "counters": dict(self.counters),
                "evaluate_record_sum_s": sum(e - s for s, e in self.record_intervals) / 1e9,
                "evaluate_record_union_s": _union_ns(self.record_intervals) / 1e9,
            }


def _hooks(tracer, toric, symmetry):
    """Counters derived from a wrapped call's arguments and outcome."""
    def load_catalog(args, kwargs, result, exc):
        if result is not None:
            tracer.add("catalog.records_parsed", len(result.records))

    def adjoint_matrix(args, kwargs, result, exc):
        if isinstance(result, symmetry.AdjointUnsolvable):
            tracer.add("symmetry.adjoint_unsolvable")

    def vanishing_verdict(args, kwargs, result, exc):
        system = args[0] if args else kwargs["system"]
        semisimple = kwargs.get("semisimple_full", args[2] if len(args) > 2 else False)
        if not semisimple:
            usable = sum(1 for c in system.constraints if c.usable())
            tracer.add("character.subsets", 2 ** usable)

    def rref(args, kwargs, result, exc):
        rows = args[0] if args else kwargs["rows"]
        cells = len(rows) * len(rows[0]) if rows else 0
        tracer.maximum("ratlinalg.rref.max_cells", cells)

    def build(args, kwargs, result, exc):
        if isinstance(exc, toric.KahlerRegionError):
            tracer.add("toric.region_rejected")

    def from_halfspaces(args, kwargs, result, exc):
        dim, halfspaces = args[1], args[2]
        tracer.add("toric.cramer_solves", comb(len(halfspaces), dim))

    def zero_locus_scan(args, kwargs, result, exc):
        if result is not None:
            # grid points visited: the in-region ones plus the skipped ones
            tracer.add("toric.scan.points", len(result.points) + result.skipped)
            tracer.add("toric.scan.skipped", result.skipped)

    return {"catalog.load_catalog": load_catalog,
            "symmetry.adjoint_matrix": adjoint_matrix,
            "character.vanishing_verdict": vanishing_verdict,
            "ratlinalg.rref": rref,
            "toric.build": build,
            "toric.from_halfspaces": from_halfspaces,
            "toric.scan": zero_locus_scan}


def _wrap(tracer, name, kind, fn, hook):
    if kind == "count":
        def counted(*args, **kwargs):
            tracer.count_call(name)
            return fn(*args, **kwargs)
        return counted

    def wrapped(*args, **kwargs):
        result = exc = None
        try:
            result = tracer.span(name, fn, args, kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            if hook is not None:
                hook(args, kwargs, result, exc)
    return wrapped


def install(tracer):
    """Wrap every target in the imported futakizero package."""
    modules = {t[1]: importlib.import_module(f"futakizero.{t[1]}") for t in TARGETS}
    hooks = _hooks(tracer, modules["toric"], modules["symmetry"])
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "futakizero" or n.startswith("futakizero."))]
    for name, module, attr, kind in TARGETS:
        owner = modules[module]
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = _wrap(tracer, name, kind, fn, hooks.get(name))
            setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
            continue
        fn = getattr(owner, attr)
        wrapped = _wrap(tracer, name, kind, fn, hooks.get(name))
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def merge(summaries):
    """Sum per-process summaries (``rref.max_cells`` takes the maximum)."""
    total = {"calls": {}, "self_s": {}, "counters": {},
             "evaluate_record_sum_s": 0.0, "evaluate_record_union_s": 0.0}
    for s in summaries:
        for part in ("calls", "self_s"):
            for k, v in s[part].items():
                total[part][k] = total[part].get(k, 0) + v
        for k, v in s["counters"].items():
            if k == "ratlinalg.rref.max_cells":
                total["counters"][k] = max(total["counters"].get(k, 0), v)
            else:
                total["counters"][k] = total["counters"].get(k, 0) + v
        total["evaluate_record_sum_s"] += s["evaluate_record_sum_s"]
        total["evaluate_record_union_s"] += s["evaluate_record_union_s"]
    return total


def layer_metrics(total):
    """Flat ``{metric name: value}`` of every per-layer metric."""
    out = {}
    for name, _, _, kind in TARGETS:
        out[f"{name}.calls"] = total["calls"].get(name, 0)
        if kind == "span" and name not in NO_SELF_TIME:
            out[f"{name}.s"] = total["self_s"].get(name, 0.0)
    for name in ("catalog.records_parsed", "symmetry.adjoint_unsolvable",
                 "character.subsets", "ratlinalg.rref.max_cells",
                 "toric.region_rejected", "toric.cramer_solves",
                 "toric.scan.points", "toric.scan.skipped"):
        out[name] = total["counters"].get(name, 0)
    builds = out["toric.build.calls"]
    out["toric.build.useful_ratio"] = (
        (builds - out["toric.region_rejected"]) / builds if builds else 0.0)
    out["cli.evaluate_record.sum_s"] = total["evaluate_record_sum_s"]
    out["cli.evaluate_record.union_s"] = total["evaluate_record_union_s"]
    return out
