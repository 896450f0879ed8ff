"""Spans around wickforge's public functions, recorded from outside the package.

:meth:`Tracer.install` replaces each traced function by a wrapper in every
loaded wickforge module that holds it under its name (``wickforge.cli.gram_matrix``,
``wickforge.fock.kernel_basis``, ``wickforge.wick.creation_matrix``, ...), so
calls between modules and recursive calls are seen; :meth:`Tracer.uninstall`
puts the originals back.  Spans are kept in memory with a parent link and a
request id.  A function's self time is its span's duration minus the
durations of its direct child spans (the program is single-threaded, so
children nest and do not overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

#: Traced functions, named ``<defining module>.<function>``; ``cli.main`` is
#: reported as the ``cli`` layer.
FUNCTIONS = (
    "cli.main",
    "operators.load_system",
    "operators.validate_system",
    "fock.gram_matrix",
    "fock.positivity_report",
    "fock.sector_report",
    "fock.quotient_gram",
    "fock.quotient_sector",
    "fock.descended_operators",
    "fock.creation_matrix",
    "fock.annihilation_matrix",
    "linalg.hermitian_spectrum",
    "linalg.kernel_basis",
    "linalg.span_and_complement",
    "wick.parse_expression",
    "wick.normal_order",
    "wick.evaluation_blocks",
    "wick.format_expression",
)

#: The dense decompositions whose operation count is summed in
#: ``linalg.decomp.cubic_work`` (rows * cols * min(rows, cols) per matrix).
DECOMPOSITIONS = ("linalg.hermitian_spectrum", "linalg.kernel_basis",
                  "linalg.span_and_complement")

COUNTERS = ("fock.max_sector_dim", "linalg.decomp.cubic_work",
            "wick.normal_order.terms_out")


def _wickforge_modules() -> list:
    """Every loaded wickforge module: the namespaces callers look names up in."""
    return [module for key, module in list(sys.modules.items())
            if key == "wickforge" or key.startswith("wickforge.")]


def layer_name(qual: str) -> str:
    return "cli" if qual == "cli.main" else qual


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, request, t0, t1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for qual in FUNCTIONS:
            home, name = qual.split(".")
            original = getattr(importlib.import_module(f"wickforge.{home}"), name, None)
            if original is None:
                continue
            wrapper = self._wrap(qual, original)
            for module in _wickforge_modules():
                if getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, qual: str, fn):
        spans, stack = self.spans, self._stack
        name = layer_name(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            self._count(qual, args, kwargs, result)
            return result

        return wrapper

    def _count(self, qual: str, args, kwargs, result) -> None:
        if qual == "fock.gram_matrix":
            dim = result.mat.shape[0]
            self.counters["fock.max_sector_dim"] = max(self.counters["fock.max_sector_dim"], dim)
        elif qual in DECOMPOSITIONS:
            shape = np.shape(args[0] if args else next(iter(kwargs.values()), None))
            if len(shape) == 2:
                rows, cols = shape
                self.counters["linalg.decomp.cubic_work"] += rows * cols * min(rows, cols)
        elif qual == "wick.normal_order":
            self.counters["wick.normal_order.terms_out"] += len(result.terms)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        totals = {layer_name(q): [0.0, 0] for q in FUNCTIONS}
        for idx, (name, _, _, t0, t1) in enumerate(self.spans):
            totals[name][0] += (t1 - t0) - child_time[idx]
            totals[name][1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "request", "t0", "t1"],
                       "spans": self.spans, "counters": self.counters}, fh)
