"""Spans around the public functions of each dehn4 module, installed from outside.

Each traced function is replaced by a wrapper in every dehn4 module
namespace that holds it (so `seifert.det`, imported from `exact`, is traced
as `exact.det`, and calls between layers nest correctly).  A span records
its name, start, end, parent span, request id and operand size; spans stay
in memory until the run writes them out.  Functions a later version of the
package no longer has are skipped and report zero calls.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from math import isqrt
from time import perf_counter

TRACED = {
    "surgery": ("parse_presentation",),
    "linking": ("smith_normal_form", "hoste_linking", "self_linking_form"),
    "seifert": ("signature", "alexander_polynomial", "fox_milnor", "parallel_cable",
                "connected_sum", "knot_from_spec"),
    "laurent": ("poly_det",),
    "exact": ("det", "solve_rational", "signature_symmetric"),
    "forms": ("quadratic_residues", "lens_qr_bounding", "enumerate_even_splittings"),
    "legendrian": ("load_named_fronts", "stein_framings"),
    "twists": ("extension_subgroup",),
    "scenarios": ("build_scenario", "run_scenario"),
    "report": ("render",),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _fox_milnor_needs_factoring(delta, degree_bound=16) -> bool:
    """Whether fox_milnor must factor delta: within the degree bound, a square
    determinant |delta(-1)|, and delta not a unit (the documented branch order)."""
    coeffs = delta.coeffs
    det = abs(sum(c if e % 2 == 0 else -c for e, c in coeffs.items()))
    return len(coeffs) > 1 and _span(delta) <= degree_bound and isqrt(det) ** 2 == det


def _span(delta) -> int:
    exps = delta.coeffs.keys()
    return max(exps) - min(exps) if exps else 0


# Operand size of a call: the modulus, the matrix dimension or the degree span.
SIZES = {
    "forms.quadratic_residues": lambda a, k: _first(a, k, "p"),
    "forms.lens_qr_bounding": lambda a, k: _first(a, k, "p"),
    "exact.det": lambda a, k: len(_first(a, k, "m")),
    "exact.signature_symmetric": lambda a, k: len(_first(a, k, "m")),
    "laurent.poly_det": lambda a, k: len(_first(a, k, "entries")),
    "seifert.signature": lambda a, k: _first(a, k, "v").size,
    "seifert.alexander_polynomial": lambda a, k: _first(a, k, "v").size,
    "seifert.fox_milnor": lambda a, k: _span(_first(a, k, "delta")),
}
COUNTS = {"report.render.bytes": "bytes", "seifert.fox_milnor.factor_calls": "count"}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, request, size)
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        sizer = SIZES.get(name)

        def probe(args, kwargs):
            # Reads the program's values from outside; a later version may
            # shape them differently, which must not break the call itself.
            try:
                if name == "seifert.fox_milnor" and _fox_milnor_needs_factoring(*args, **kwargs):
                    counts["seifert.fox_milnor.factor_calls"] += 1
                return sizer(args, kwargs) if sizer else None
            except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = probe(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, size)
            if name == "report.render":  # UTF-8 bytes, without copying ASCII text
                counts["report.render.bytes"] += (
                    len(result) if result.isascii() else len(result.encode("utf-8"))
                )
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for mod, fns in TRACED.items():
            try:
                module = importlib.import_module(f"dehn4.{mod}")
            except ModuleNotFoundError:
                continue
            for fn in fns:
                original = getattr(module, fn, None)
                if callable(original):
                    wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "dehn4" and not modname.startswith("dehn4."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False


def self_times(spans) -> dict[str, list]:
    """Per function: [calls, self seconds, max operand size].

    Self time is a span's duration minus the time its child spans cover;
    spans come from one thread, so children never overlap and their
    durations add up to the covered time.
    """
    covered = defaultdict(float)
    for name, start, end, parent, _req, _size in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: [0, 0.0, 0] for name in NAMES}
    for idx, (name, start, end, _parent, _req, size) in enumerate(spans):
        row = out[name]
        row[0] += 1
        row[1] += (end - start) - covered[idx]
        if size is not None:
            row[2] = max(row[2], size)
    return out
