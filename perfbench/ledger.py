"""Checked calls and spans for the curvflow benchmark.

A Ledger runs each checked public call of a workload (an "operation"),
times it, counts it, and records a miss when the call raises or its oracle
check fails.  With tracing on it also keeps one span per call: name,
start, end, parent span and a few counts (steps, rows, iterations).  The
spans stay in memory and are aggregated when the run ends.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Ledger:
    """Counts, times and checks the public calls of one workload pass.

    busy is the time spent inside top-level calls: the pass's wall time
    without the benchmark's own checking.  spans is None when tracing is
    off; then nothing is recorded beyond the counters.
    """

    def __init__(self, tracing: bool = False):
        self.attempted = 0
        self.misses: list[str] = []
        self.busy = 0.0
        self.steps = 0
        self.rows = 0
        self.spans: list[Span] | None = [] if tracing else None
        self._open: list[int] = []
        self._depth = 0

    @contextmanager
    def span(self, name: str):
        """Time a block; yields a dict the block may fill with counts."""
        counts: dict[str, float] = {}
        parent = self._open[-1] if self._open else None
        index = None
        if self.spans is not None:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, counts))
            self._open.append(index)
        self._depth += 1
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._depth -= 1
            if self._depth == 0:
                self.busy += end - start
            if index is not None:
                self._open.pop()
                self.spans[index].start = start
                self.spans[index].end = end

    def call(
        self,
        span: str,
        label: str,
        fn: Callable[[], Any],
        check: Callable[[Any], str | None],
        counts: Callable[[Any], dict[str, float]] | None = None,
    ) -> Any:
        """Run one checked operation.

        Returns the call's result, also when the check misses, so that
        dependent operations still run; returns None when the call raised.
        """
        self.attempted += 1
        with self.span(span) as extra:
            try:
                result = fn()
            except Exception as exc:  # a raising call is a failed operation
                self.misses.append(f"{label}: raised {type(exc).__name__}: {exc}")
                traceback.print_exc()
                return None
            if counts is not None:
                extra.update(counts(result))
        problem = check(result)
        if problem:
            self.misses.append(f"{label}: {problem}")
        return result

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed seconds, self seconds and summed counts."""
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans or [])
        for sp in self.spans or []:
            if sp.parent is not None:
                child_time[sp.parent] += sp.seconds
        for i, sp in enumerate(self.spans or []):
            agg = out.setdefault(sp.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            agg["calls"] += 1
            agg["seconds"] += sp.seconds
            agg["self_seconds"] += sp.seconds - child_time[i]
            for key, value in sp.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out
