"""Span tracing of fatflip's public functions, installed from outside the package.

The package imports with ``from .x import y`` and keeps some functions in
module-level tables (``cocycles._COCYCLE_FUNCS``, ``selftest.SECTIONS``), so
a function is replaced at every module attribute that binds it, directly or
inside such a table; patching only the defining module would miss internal
calls.  Methods are replaced once, on their class.

A span is (layer, start_ns, end_ns, parent span index or -1, op id), with op
id -1 for set-up.  Spans are kept in memory while the workload runs and are
written out at the end.  Nothing is recorded while ``Tracer.op`` is None, so
the benchmark's own checks stay out of the per-layer figures.
"""

from __future__ import annotations

import csv
import functools
import gc
import gzip
import importlib
import sys
import time
from math import comb

# "module:attribute"; an attribute "Class.method" is patched on the class.
# The layer name is "module.function", or "module.Class_init" for __init__.
LAYERS = (
    "fatgraph:FatGraph.__init__", "fatgraph:FatGraph.canonicalize",
    "fatgraph:FatGraph.boundary_cycles", "fatgraph:canonical_iso",
    "flips:flip", "flips:flippable_edges", "flips:apply_path",
    "flips:reverse_path",
    "markings:Marking.__init__", "markings:propagate",
    "markings:canonical_h_marking", "markings:is_topological_h",
    "markings:check_marking",
    "cocycles:cocycle_m", "cocycles:cocycle_j", "cocycles:cocycle_s",
    "cocycles:path_sum", "cocycles:induced_k_automorphism",
    "abelian:wedge2", "abelian:wedge3", "abelian:sym_pair",
    "intlinalg:smith", "intlinalg:cokernel", "intlinalg:symplectic_basis",
    "intlinalg:solve_transform",
    "earle:earle_f", "earle:d_surface",
    "words:reduce_word",
    "randgen:rose_vertices", "randgen:standard_surface_graph",
    "randgen:random_flip_path", "randgen:random_graph", "randgen:random_gl",
    "randgen:random_coherent_marking",
)

SETUP_OP = -1
HOOK = "trace.hook"   # time spent by the tracer's own result inspection


def layer_name(spec: str) -> str:
    module, attr = spec.split(":")
    cls, _, method = attr.rpartition(".")
    return "%s.%s" % (module, cls + "_init" if method == "__init__" else method)


def _replace(value, old, new, depth=2):
    """``value`` with ``old`` swapped for ``new`` inside tuples, lists and dicts."""
    if value is old:
        return new
    if depth == 0:
        return value
    if isinstance(value, dict):
        for key, item in value.items():
            value[key] = _replace(item, old, new, depth - 1)
        return value
    if isinstance(value, (tuple, list)):
        items = [_replace(item, old, new, depth - 1) for item in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    return value


class Tracer:
    """Records spans and result counters for the wrapped layers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {"abelian.wedge3.terms_out": 0,
                         "abelian.wedge3.terms_tried": 0,
                         "abelian.sym_pair.terms_out": 0,
                         "intlinalg.smith.cells": 0,
                         "intlinalg.smith.max_bits": 0}
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start = None
        self.layers = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        hooks = {"abelian.wedge3": self._count_wedge3,
                 "abelian.sym_pair": self._count_sym_pair,
                 "intlinalg.smith": self._count_smith}
        for spec in LAYERS:
            module_name, attr = spec.split(":")
            owner = importlib.import_module(
                "%s.%s" % (package.__name__, module_name))
            name = layer_name(spec)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, method,
                        self._wrap(name, cls.__dict__[method], hooks.get(name)))
            else:
                self._rebind(modules, getattr(owner, attr),
                             self._wrap(name, getattr(owner, attr),
                                        hooks.get(name)))
            self.layers.append(name)
        selftest = importlib.import_module(package.__name__ + ".selftest")
        for section, func in selftest.SECTIONS:
            name = "selftest.%s" % section
            self._rebind(modules, func, self._wrap(name, func))
            self.layers.append(name)
        gc.callbacks.append(self._on_gc)

    @staticmethod
    def _rebind(modules, old, new) -> None:
        bound = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                swapped = _replace(value, old, new)
                if swapped is not value:
                    setattr(module, key, swapped)
                    bound += 1
                elif isinstance(value, dict) and new in value.values():
                    bound += 1
        if not bound:
            raise RuntimeError("no module binds %s" % old.__qualname__)

    def _wrap(self, name, func, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return func(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                spans.append((HOOK, hook_start, clock(), parent, op))
            return result

        return traced

    # -- result counters --------------------------------------------------

    def _count_wedge3(self, args, result) -> None:
        self.counters["abelian.wedge3.terms_out"] += len(result.coeffs)
        self.counters["abelian.wedge3.terms_tried"] += comb(result.rank, 3)

    def _count_sym_pair(self, args, result) -> None:
        self.counters["abelian.sym_pair.terms_out"] += len(result.coeffs)

    def _count_smith(self, args, result) -> None:
        matrix = args[0]
        self.counters["intlinalg.smith.cells"] += (
            len(matrix) * (len(matrix[0]) if matrix else 0))
        bits = max((abs(x).bit_length()
                    for m in (result.u, result.v, result.u_inv, result.v_inv)
                    for row in m for x in row), default=0)
        if bits > self.counters["intlinalg.smith.max_bits"]:
            self.counters["intlinalg.smith.max_bits"] = bits

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns() if self.op is not None else None
        elif self._gc_start is not None:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_gen2 += info["generation"] == 2
            self._gc_start = None

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per layer, plus the result counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the workload is one thread.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(self.layers, 0)
        self_ns = dict.fromkeys(self.layers, 0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name != HOOK:
                calls[name] += 1
                self_ns[name] += end - start - child_ns[index]
        out = {}
        for name in self.layers:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_ns[name] / 1e9
        c = self.counters
        out["abelian.wedge3.useful_ratio"] = (
            c["abelian.wedge3.terms_out"] / c["abelian.wedge3.terms_tried"]
            if c["abelian.wedge3.terms_tried"] else 0.0)
        for key in ("abelian.sym_pair.terms_out", "intlinalg.smith.cells",
                    "intlinalg.smith.max_bits"):
            out[key] = c[key]
        out["runtime.gc.pause_s"] = self.gc_pause_ns / 1e9
        out["runtime.gc.gen2_collections"] = self.gc_gen2
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_ns", "end_ns", "parent", "op"))
            writer.writerows(self.spans)
