"""In-memory spans around the public calls the benchmark makes.

A span is (name, start, end, parent, unit): `unit` numbers the set-up or
op it belongs to, `parent` is the index of the enclosing span or None.
When the tracer is disabled, `call` is a plain call and records nothing,
so untraced ops pay one extra Python call per public call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.unit = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.absent: set[str] = set()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, **counts) -> None:
        """Add counts to the most recent span called `name` in this unit."""
        if not self.enabled:
            return
        for span in reversed(self.spans):
            if span.name == name and span.unit == self.unit:
                for key, value in counts.items():
                    span.counts[key] = span.counts.get(key, 0) + value
                return

    def wrap_global(self, module, attr: str, span_name: str, on_result=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        Calls the program makes through the module global then pass through
        the wrapper. `on_result(args, kwargs, result)` sees each result,
        traced or not. A missing attribute is recorded as absent, so its
        metrics are left out rather than reported as zero.
        """
        target = getattr(module, attr, None)
        if target is None:
            self.absent.add(span_name)
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            result = self.call(span_name, target, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def per_unit_totals(spans: list[Span]) -> dict[str, dict[int, dict[str, float]]]:
    """{span name: {unit: {"self_s", "calls", <counts>...}}}."""
    own = self_times(spans)
    out: dict[str, dict[int, dict[str, float]]] = {}
    for span, self_s in zip(spans, own):
        acc = out.setdefault(span.name, {}).setdefault(
            span.unit, {"self_s": 0.0, "calls": 0}
        )
        acc["self_s"] += self_s
        acc["calls"] += 1
        for key, value in span.counts.items():
            acc[key] = acc.get(key, 0) + value
    return out


def median_over_units(totals: dict[int, dict[str, float]], key: str) -> float:
    return median(unit.get(key, 0) for unit in totals.values())
