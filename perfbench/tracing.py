"""Outside-in tracing of folcurves for the benchmark's traced run.

The wrappers live here; `src/` is untouched.  folcurves imports names by
value (`from .linalg import kernel_of_columns`), so a wrapped function is
rebound in every folcurves module namespace that holds it, and in
module-level dicts such as `verification.CRITERIA`; methods are wrapped on
their class.  `Tracer.restore` puts every original back.

Spans are kept in memory as parallel arrays of integer nanoseconds and
written out once, at the end.  A span's self time is its duration minus the
durations of its children; the program runs on one thread, so children of
one span never overlap and self times are exact and non-negative.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

ROOT = "op"


class Tracer:
    """Spans and counters for the layers named by `install`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one entry per span
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.self_ns = array("q")
        # one entry per span name
        self.calls = []
        self.total_self = []
        self.entry_ns = []
        self.max_entry = []
        self.active = []
        self.counts = Counter()
        self._stack = []  # (span index, name id, child ns, is entry)
        self._patches = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.total_self, self.entry_ns,
                           self.max_entry, self.active):
                column.append(0)
        return self._ids[name]

    def is_active(self, name: str) -> bool:
        return bool(self.active[self._ids[name]])

    def open(self, nid: int):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        entry = not stack or stack[-1][1] != nid
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0)
        self.self_ns.append(0)
        self.active[nid] += 1
        if entry:
            self.calls[nid] += 1
        stack.append([idx, nid, 0, entry])
        self.start.append(time.perf_counter_ns())

    def close(self):
        now = time.perf_counter_ns()
        idx, nid, child, entry = self._stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_ns[idx] = duration - child
        self.total_self[nid] += duration - child
        self.active[nid] -= 1
        if entry:
            self.entry_ns[nid] += duration
            if duration > self.max_entry[nid]:
                self.max_entry[nid] = duration
        if self._stack:
            self._stack[-1][2] += duration

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.open(self.name_id(ROOT))

    def end_op(self):
        self.close()
        self.op_id = -1

    def wrap(self, name: str, func, before=None, after=None):
        """Return func inside a span; before(args) and after(args, result)
        run outside the span, so their cost is not charged to the layer."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            open_(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, **hooks):
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        for mod in _folcurves_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = traced
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = traced

    def patch_method(self, cls, attr: str, name: str, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def restore(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def write_spans(self, path):
        """One tab-separated line per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                          f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.self_ns[i]}\n")

    # -- per-layer metrics ---------------------------------------------------

    def _get(self, column, name):
        nid = self._ids.get(name)
        return 0 if nid is None else column[nid]

    def calls_of(self, name: str) -> int:
        return self._get(self.calls, name)

    def self_s(self, name: str) -> float:
        return self._get(self.total_self, name) / 1e9

    def inclusive_s(self, name: str) -> float:
        return self._get(self.entry_ns, name) / 1e9

    def max_s(self, name: str) -> float:
        return self._get(self.max_entry, name) / 1e9


def _folcurves_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "folcurves" or n.startswith("folcurves."))]


def public_functions(module):
    return [n for n, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__
            and not n.startswith("_")]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer):
    """Wrap every layer the per-layer metrics name."""
    import folcurves.cli  # noqa: F401  (loads every folcurves module)
    from folcurves import (classify, forms, groebner, linalg, monad, parsing,
                           polyring, sheafcoh, verification)

    counts = tracer.counts
    poly = polyring.HomogeneousPolynomial

    for module, attr in ((polyring, "parse_polynomial"), (forms, "parse_form"),
                         (parsing, "parse_value")):
        tracer.patch_function(module, attr, "parsing")
    tracer.patch_method(poly, "__mul__", "polyring.mul")
    tracer.patch_method(poly, "multiply_monomial", "polyring.multiply_monomial")

    tracer.patch_function(forms, "wedge", "forms.wedge")
    for attr in public_functions(forms):
        if attr not in ("wedge", "parse_form"):
            tracer.patch_function(forms, attr, "forms")

    def after_buchberger(args, result):
        counts["buchberger.basis_size"] += len(result)

    def after_normal_form(args, result):
        if tracer.is_active("groebner.buchberger"):
            counts["buchberger.reductions"] += 1
            counts["buchberger.useful_reductions"] += bool(result)

    def after_resolution(args, result):
        counts["resolution.new_gens"] += sum(len(t) for t in result.twists[2:])

    def before_kernel(args):
        columns = args[0]
        counts["kernel.cols"] += len(columns)
        counts["kernel.nnz"] += sum(len(c) for c in columns)
        counts["kernel.max_cols"] = max(counts["kernel.max_cols"], len(columns))

    def after_kernel(args, result):
        counts["kernel.dim"] += len(result)
        if tracer.is_active("groebner.resolution"):
            counts["resolution.kernel_dim"] += len(result)

    def after_insert(args, result):
        counts["echelon.independent"] += result is not None

    tracer.patch_function(groebner, "buchberger", "groebner.buchberger",
                          after=after_buchberger)
    tracer.patch_function(groebner, "normal_form", "groebner.normal_form",
                          after=after_normal_form)
    for attr in ("hilbert_numerator", "hilbert_function", "hilbert_polynomial"):
        tracer.patch_method(groebner.GradedIdeal, attr, "groebner.hilbert")
    tracer.patch_function(groebner, "minimal_free_resolution", "groebner.resolution",
                          after=after_resolution)
    tracer.patch_function(groebner, "rao_module_dimensions", "groebner.rao")
    tracer.patch_function(groebner, "graded_syzygies", "groebner.syzygies")
    tracer.patch_function(linalg, "kernel_of_columns", "linalg.kernel",
                          before=before_kernel, after=after_kernel)
    tracer.patch_method(linalg.Echelon, "insert", "linalg.echelon", after=after_insert)

    for module, name in ((classify, "classify"), (sheafcoh, "sheafcoh"), (monad, "monad")):
        for attr in public_functions(module):
            tracer.patch_function(module, attr, name)
    for cid, check in list(verification.CRITERIA.items()):
        tracer.patch_function(verification, check.__name__, f"verification.{cid}")


def layer_metrics(tracer: Tracer, criteria) -> dict:
    """Every per-layer metric, by its BENCHMARK.json name."""
    t, c = tracer, tracer.counts
    kernel_dim = c["resolution.kernel_dim"]
    out = {
        "parsing.calls": t.calls_of("parsing"),
        "parsing.self_s": t.self_s("parsing"),
        "polyring.mul.calls": t.calls_of("polyring.mul"),
        "polyring.mul.self_s": t.self_s("polyring.mul"),
        "polyring.multiply_monomial.calls": t.calls_of("polyring.multiply_monomial"),
        "polyring.multiply_monomial.self_s": t.self_s("polyring.multiply_monomial"),
        "forms.wedge.calls": t.calls_of("forms.wedge"),
        "forms.wedge.self_s": t.self_s("forms.wedge"),
        "forms.self_s": t.self_s("forms"),
        "groebner.buchberger.calls": t.calls_of("groebner.buchberger"),
        "groebner.buchberger.self_s": t.self_s("groebner.buchberger"),
        "groebner.buchberger.basis_size": c["buchberger.basis_size"],
        "groebner.buchberger.useful_reduction_ratio": _ratio(
            c["buchberger.useful_reductions"], c["buchberger.reductions"]),
        "groebner.normal_form.calls": t.calls_of("groebner.normal_form"),
        "groebner.normal_form.self_s": t.self_s("groebner.normal_form"),
        "groebner.hilbert.calls": t.calls_of("groebner.hilbert"),
        "groebner.hilbert.self_s": t.self_s("groebner.hilbert"),
        "groebner.resolution.calls": t.calls_of("groebner.resolution"),
        "groebner.resolution.self_s": t.self_s("groebner.resolution"),
        "groebner.resolution.max_s": t.max_s("groebner.resolution"),
        "groebner.resolution.kernel_dim": kernel_dim,
        "groebner.resolution.new_gens": c["resolution.new_gens"],
        "groebner.resolution.useful_kernel_ratio": _ratio(
            c["resolution.new_gens"], kernel_dim),
        "groebner.rao.calls": t.calls_of("groebner.rao"),
        "groebner.rao.self_s": t.self_s("groebner.rao"),
        "groebner.syzygies.self_s": t.self_s("groebner.syzygies"),
        "linalg.kernel.calls": t.calls_of("linalg.kernel"),
        "linalg.kernel.self_s": t.self_s("linalg.kernel"),
        "linalg.kernel.cols": c["kernel.cols"],
        "linalg.kernel.nnz": c["kernel.nnz"],
        "linalg.kernel.max_cols": c["kernel.max_cols"],
        "linalg.kernel.dim": c["kernel.dim"],
        "linalg.echelon.inserts": t.calls_of("linalg.echelon"),
        "linalg.echelon.self_s": t.self_s("linalg.echelon"),
        "linalg.echelon.independent_ratio": _ratio(
            c["echelon.independent"], t.calls_of("linalg.echelon")),
        "classify.self_s": t.self_s("classify"),
        "sheafcoh.self_s": t.self_s("sheafcoh"),
        "monad.self_s": t.self_s("monad"),
    }
    for cid in criteria:
        out[f"verification.{cid}.s"] = t.inclusive_s(f"verification.{cid}")
    return out
