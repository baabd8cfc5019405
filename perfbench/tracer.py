"""Span tracer that wraps boxeig's layer functions from outside the package.

Only a traced run creates a :class:`Tracer`; untraced runs patch nothing.
Installing replaces each public function of a layer module, and each public
method of a class defined there, by a wrapper that records a span.  The
wrapper is put everywhere a caller looks the function up: the defining
module and every ``boxeig`` module that bound it with ``from ... import``.
Leaving the ``with`` block puts every original object back.

A span records its name, its parent, the command id, wall time and
``time.thread_time``.  Spans opened by the CLI's row pool threads take the
main thread's innermost open span as parent, so a row's work hangs under the
call that fanned it out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: boxeig modules whose functions are wrapped.  ``poly`` is the arithmetic
#: kernel under all of them and is measured only through the polynomial sizes
#: recorded below: wrapping its ring operations would cost more than they do.
#: ``estimates``, ``goldens`` and ``model`` are too cheap to time alone; their
#: time lands in their caller's self time.
LAYERS = ("cli", "series", "variational", "rayleigh_ritz", "rootfind", "oracle")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    cmd: int
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    tag: object = None


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


@dataclass
class Counters:
    """Kept at layer boundaries: polynomial sizes (maxima) and estimates."""

    rootfind_degree: int = 0
    rootfind_bits: int = 0
    sturm_len: int = 0
    char_poly_bits: int = 0
    estimates: int = 0  # non-None results from the solve_* entry points


@dataclass
class Tracer:
    """Records spans while installed; use as a context manager."""

    spans: list[Span] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    cmd: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            span = Span(sid, parent, name, tracer.cmd, threading.get_ident(), 0.0)
            stack.append(sid)
            c0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - c0
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return wrapper

    # size observers, run after the span closed so they do not count in it

    def _observe_isolate(self, span, args, result) -> None:
        p = args[0]
        self.counters.rootfind_degree = max(self.counters.rootfind_degree, p.degree)
        self.counters.rootfind_bits = max(self.counters.rootfind_bits, coeff_bits(p))

    def _observe_sturm(self, span, args, result) -> None:
        self.counters.sturm_len = max(self.counters.sturm_len, len(result))

    def _observe_bareiss(self, span, args, result) -> None:
        self.counters.char_poly_bits = max(self.counters.char_poly_bits, coeff_bits(result))

    def _observe_estimate(self, span, args, result) -> None:
        if result is not None:
            self.counters.estimates += 1

    def _observe_row(self, span, args, result) -> None:
        span.tag = args[1]  # compute_cells(cfg, n): the row's N

    def _observers(self) -> dict[str, Callable]:
        estimate = self._observe_estimate
        return {
            "rootfind.isolate_real_roots": self._observe_isolate,
            "rootfind.sturm_sequence": self._observe_sturm,
            "rayleigh_ritz.bareiss_determinant": self._observe_bareiss,
            "series.solve_a1": estimate,
            "variational.solve_a2": estimate,
            "variational.solve_a3": estimate,
            "rayleigh_ritz.solve_secular": estimate,
            "cli.compute_cells": self._observe_row,
        }

    def __enter__(self) -> "Tracer":
        observers = self._observers()
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"boxeig.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self._wrap(name, value, observers.get(name))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(value, meth, self._wrap(f"{layer}.{meth}", fn, None))
        # every binding of a wrapped function, in boxeig's modules
        for modname, module in list(sys.modules.items()):
            if modname != "boxeig" and not modname.startswith("boxeig."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(module, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(kids: list[Span], start: float, end: float) -> float:
    """Length of the union of the kids' intervals inside [start, end]."""
    total = 0.0
    reach = start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


#: Functions whose calls and self time are reported, per layer.
REPORTED = {
    "rootfind": ("isolate_real_roots", "sturm_sequence", "poly_gcd", "count_real_roots",
                 "certified_root", "refine_enclosure"),
    "variational": ("build_quotient", "stationarity_polynomial", "fixed_point_polynomial"),
    "series": ("build_series",),
    "rayleigh_ritz": ("build_secular", "bareiss_determinant", "solve_secular"),
    "oracle": ("exact_linear", "airy", "series_integrate"),
    "cli": ("compute_cells",),
}


def _ancestor(span: Span, by_id: dict[int, Span], name: str) -> Span | None:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return span
    return None


def summarize(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit); counts and times are per pass.

    Self time is a span's wall time minus the part of it its child spans
    cover; a layer's wait time is its self wall time minus its self CPU time
    (for the row pool, mostly time spent waiting for the interpreter lock).
    """
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wait_s: dict[str, float] = {}
    for s in spans:
        kids = children.get(s.sid, [])
        wall = (s.end - s.start) - _covered(kids, s.start, s.end)
        cpu = s.cpu - sum(k.cpu for k in kids if k.thread == s.thread)
        for key in (s.name, s.name.split(".", 1)[0]):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + wall
            wait_s[key] = wait_s.get(key, 0.0) + max(wall - cpu, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for layer, functions in REPORTED.items():
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / passes, "s")
        out[f"{layer}.wait_s"] = (wait_s.get(layer, 0.0) / passes, "s")
        for fn in functions:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    # a row's whole wall time minus its CPU time: under the row pool, the
    # time the row waited for the interpreter lock
    row_wait = sum(s.end - s.start - s.cpu for s in spans if s.name == "cli.compute_cells")
    out["cli.compute_cells.wait_s"] = (row_wait / passes, "s")

    counters = tracer.counters
    out["rootfind.sturm_sequence.len_max"] = (counters.sturm_len, "count")
    out["rootfind.input.degree_max"] = (counters.rootfind_degree, "count")
    out["rootfind.input.bits_max"] = (counters.rootfind_bits, "bits")
    out["rayleigh_ritz.char_poly.bits_max"] = (counters.char_poly_bits, "bits")
    refines = calls.get("rootfind.refine_enclosure", 0)
    out["rootfind.refine_useful_ratio"] = (counters.estimates / refines if refines else 0.0, "ratio")

    # quotient builds per row, over rows (command, N) that built any quotient
    rows: dict[tuple[int, int], int] = {}
    for s in spans:
        if s.name == "variational.build_quotient":
            row = _ancestor(s, by_id, "cli.compute_cells")
            if row is not None:
                key = (row.cmd, row.tag)
                rows[key] = rows.get(key, 0) + 1
    builds = sum(rows.values())
    out["variational.build_quotient.calls_per_row"] = (builds / len(rows) if rows else 0.0, "ratio")

    # share of exact_linear calls that fell back to the Taylor-ODE integrator
    fallbacks = {
        a.sid
        for s in spans
        if s.name == "oracle.series_integrate"
        and (a := _ancestor(s, by_id, "oracle.exact_linear")) is not None
    }
    exact = calls.get("oracle.exact_linear", 0)
    out["oracle.ode_fallback_ratio"] = (len(fallbacks) / exact if exact else 0.0, "ratio")
    return out
