"""Spans around calls into mintime, recorded from the benchmark's side.

A Tracer rebinds chosen public functions of the mintime modules to wrappers
that record one span per call: its name, start, end and the span that was
open when it started (its parent).  Spans live in flat arrays in memory and
are summarised after the run; nothing is written while it runs.  A layer's
self time is a span's duration minus the time its child spans cover.

The untraced benchmark run never creates a Tracer, so it runs the program
with no wrapper installed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import mintime
from mintime import characteristics, isochrone, manifold, oracle, simulator, synthesis

# (span name, owner, attribute).  A module-level function is rebound in every
# mintime module that holds it, so calls made through `from .x import f`
# bindings are seen as well as calls through the package namespace.
SPANS = (
    ("simulator.simulate", simulator, "simulate"),
    ("synthesis.feedback", synthesis, "feedback"),
    ("synthesis.value", synthesis, "value"),
    ("synthesis.locus_distance", synthesis, "locus_distance"),
    ("synthesis.discontinuity_loci", synthesis, "discontinuity_loci"),
    ("synthesis.touch_and_go_curves", synthesis, "touch_and_go_curves"),
    ("synthesis.switching_curve.sample", synthesis.SwitchingCurve, "sample"),
    ("manifold.signed_distance", manifold, "signed_distance"),
    ("characteristics.numeric_retro", characteristics, "numeric_retro"),
    ("isochrone.generic", isochrone, "isochrone_generic"),
    ("isochrone.circle", isochrone, "isochrone_circle"),
    ("oracle.grid_report", oracle, "oracle_grid_report"),
    ("oracle.min_time", oracle, "oracle_min_time"),
    ("oracle.policy", oracle, "oracle_policy"),
)


def _program_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == mintime.__name__ or name.startswith(mintime.__name__ + "."))]


class Rebinding:
    """Replaces functions in the mintime namespaces and puts them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make) -> None:
        """Rebind owner.attr, and every module binding of the same function, to make(original)."""
        original = getattr(owner, attr)
        replacement = make(original)
        owners = [owner] if isinstance(owner, type) else _program_modules()
        for holder in owners:
            for name, val in list(vars(holder).items()):
                if val is original:
                    self._saved.append((holder, name, original))
                    setattr(holder, name, replacement)

    def restore(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter[tuple[str, str]] = Counter()
        self._stack = [-1]
        self._rebinding = Rebinding()

    def __enter__(self) -> Tracer:
        for name, owner, attr in SPANS:
            self._rebinding.replace(owner, attr, functools.partial(self._wrap, name))
        return self

    def __exit__(self, *exc) -> None:
        self._rebinding.restore()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return {name: SpanStats(calls[name], total[name], own[name]) for name in calls}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        ids = {nm: k for k, nm in enumerate(self.names)}
        if name not in ids or ancestor not in ids:
            return 0
        target, anc = ids[name], ids[ancestor]
        under = bytearray(len(self.start))
        hits = 0
        # A parent is always recorded before its children.
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.name_id[p] == anc):
                under[i] = 1
                if self.name_id[i] == target:
                    hits += 1
        return hits
