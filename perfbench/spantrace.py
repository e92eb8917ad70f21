"""In-memory spans recorded from outside the fairgossip package.

The traced benchmark run replaces module attributes (for example
``fairgossip.engine.certificate_bits``) with timing wrappers and puts the
originals back afterwards. Two kinds of record are kept:

- a *span* for each call at a layer boundary: name, start, end, parent
  span and op index, plus a few attributes read from the result;
- an *aggregated leaf* for hot calls that never call another wrapped
  function (``certificate_bits``, ``min_certificate``, strategy hooks):
  a call count, summed seconds and a hit count, per parent span and name.

A name's layer is the text before its first dot (``engine.run_trial`` is
in layer ``engine``). Nothing here imports fairgossip.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

perf = time.perf_counter


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span store for one traced run. Single-threaded: spans nest."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (parent sid, name) -> [calls, seconds, hits]
        self.leaves: dict[tuple[Optional[int], str], list] = {}
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, perf())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        popped = self._stack.pop()
        if popped != span.sid:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap_span(self, name: str, fn: Callable,
                  after: Optional[Callable[[Span, Any], None]] = None,
                  ) -> Callable:
        """Record a span per call; `after(span, result)` runs once the span
        is closed, so reading the result is not charged to the callee."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_leaf(self, name: str, fn: Callable,
                  hit: Optional[Callable[[Any], bool]] = None) -> Callable:
        """Aggregate calls per parent span: count, seconds, and how many
        results satisfy `hit`. The wrapped function must not itself call
        another wrapped function."""
        leaves = self.leaves
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            key = (stack[-1] if stack else None, name)
            rec = leaves.get(key)
            if rec is None:
                rec = leaves[key] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if hit is not None and hit(result):
                rec[2] += 1
            return result
        wrapper.__wrapped__ = fn
        return wrapper


# --- arithmetic over a finished trace ---------------------------------------

def self_seconds(spans: list[Span],
                 leaves: dict[tuple[Optional[int], str], list],
                 ) -> dict[int, float]:
    """Span duration minus the part of it that child spans and aggregated
    leaves cover. Children of one span run one after another, so their
    coverage is the sum of their durations."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    for (parent, _name), rec in leaves.items():
        if parent is not None:
            covered[parent] += rec[1]
    return {span.sid: span.seconds - covered[span.sid] for span in spans}


class Totals:
    """Per-name and per-layer sums over one finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        own = self_seconds(tracer.spans, tracer.leaves)
        for span in tracer.spans:
            self.calls[span.name] += 1
            self.seconds[span.name] += span.seconds
            self.self_seconds[span.name] += own[span.sid]
            self.layer_self[layer_of(span.name)] += own[span.sid]
        for (_parent, name), (calls, secs, hits) in tracer.leaves.items():
            self.calls[name] += calls
            self.seconds[name] += secs
            self.self_seconds[name] += secs
            self.hits[name] += hits
            self.layer_self[layer_of(name)] += secs


# --- patching ---------------------------------------------------------------

class Patches:
    """Replace object attributes and put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, obj: Any, attr: str, value: Any) -> Any:
        original = getattr(obj, attr)
        self._saved.append((obj, attr, original))
        setattr(obj, attr, value)
        return original

    def restore(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)

    def all_restored(self) -> bool:
        """Every patched attribute is again the object it held before its
        first patch."""
        first: dict[tuple[int, str], tuple[Any, Any]] = {}
        for obj, attr, original in self._saved:
            first.setdefault((id(obj), attr), (obj, original))
        return all(getattr(obj, attr) is original
                   for (_, attr), (obj, original) in first.items())

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# --- latency summary --------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest measured value with at least
    p% of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds: list[float]) -> dict:
    """p50/p90 in ms, the op count, and how many ops lie beyond p90."""
    p90 = percentile(seconds, 90)
    return {"ops": len(seconds),
            "op_ms_p50": percentile(seconds, 50) * 1e3,
            "op_ms_p90": p90 * 1e3,
            "ops_beyond_p90": sum(s > p90 for s in seconds)}
