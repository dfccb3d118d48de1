"""Span tracer over the public functions of the spherestab modules.

``Tracer.install`` wraps every public function defined in each layer module
(plus the evaluation methods of ``CutoffField``) and puts the wrapper under
every ``spherestab`` namespace that holds the function by name, so that
``from .sampling import stratified_integral`` in ``cutoff`` is traced too.
Each call records one span ``[name, start, end, parent]`` in memory.
``Tracer.remove`` restores the originals.  Nothing here touches a report.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

LAYERS = ("cli", "operators", "spectrum", "geometry", "sampling", "cutoff", "estimates", "fields")
FIELD_METHODS = ("value", "active_index", "ambient_gradient", "ambient_hessian")


def _count_operator(c, args, op):
    c["operators.dofs"] += op.size
    c["operators.nnz"] += op.stiffness.nnz


def _count_eigen(c, args, result):
    if result.backend == "numeric":
        c["spectrum.solves"] += 1
        c["spectrum.converged"] += bool(result.converged)
        c["spectrum.max_residual"] = max(c["spectrum.max_residual"], result.residual)


def _count_samples(c, args, estimate):
    c["sampling.samples"] += estimate.samples


def _count_balls(c, args, cover):
    c["cutoff.balls"] += cover.size


def _count_pairs(c, args, result):
    field, X = args[0], args[1]
    c["cutoff.ball_point_pairs"] += np.atleast_2d(X).shape[0] * field.cover.size


COUNTERS = {
    "operators.assemble_jacobi": _count_operator,
    "spectrum.first_stability_eigenvalue": _count_eigen,
    "sampling.stratified_integral": _count_samples,
    "cutoff.cover_singular_set": _count_balls,
    **{f"cutoff.CutoffField.{m}": _count_pairs for m in FIELD_METHODS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []          # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self):
        import spherestab.cli  # noqa: F401  (loads every layer module)

        namespaces = [m for name, m in sys.modules.items()
                      if name == "spherestab" or name.startswith("spherestab.")]
        for layer in LAYERS:
            module = sys.modules[f"spherestab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        field_cls = sys.modules["spherestab.cutoff"].CutoffField
        for method in FIELD_METHODS:
            fn = vars(field_cls)[method]
            self._patched.append((field_cls, method, fn))
            setattr(field_cls, method, self._wrap(f"cutoff.CutoffField.{method}", fn))

    def remove(self):
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}
