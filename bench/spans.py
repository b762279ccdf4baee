"""In-memory spans around the benchmark's calls into redgraph.

A span records name, start, end, parent span and op id.  Spans stay in
memory during the run and are written out once at the end; per-layer
metrics are aggregated from them plus the counters hooks add.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager


def p90_ms(durations: list[float]) -> float:
    """90th percentile in milliseconds (0 with no samples)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10)[8] * 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.totals: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._open: list[int] = []
        self.op_id: int | str | None = None

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, post=None):
        """``fn`` inside a span; ``post(tracer, result, *args)`` runs after it closes."""

        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if post is not None:
                post(self, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int | str, kind: str):
        """Parent span of one op; layer spans opened inside carry its id."""
        self.op_id = op_id
        index = self._start(f"op.{kind}")
        try:
            yield
        finally:
            self._end(index)
            self.op_id = None

    def add(self, metric: str, amount: int) -> None:
        self.totals[metric] += amount

    def peak(self, metric: str, value: int) -> None:
        self.maxima[metric] = max(self.maxima.get(metric, 0), value)

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and p90_ms per span name, plus every counter."""
        durations: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            if not name.startswith("op."):
                durations.setdefault(name, []).append(end - start)
        metrics: dict[str, float] = {}
        for name, values in durations.items():
            metrics[f"{name}.calls"] = len(values)
            metrics[f"{name}.busy_s"] = sum(values)
            metrics[f"{name}.p90_ms"] = p90_ms(values)
        metrics.update(self.totals)
        metrics.update(self.maxima)
        return metrics

    def dump(self, path) -> None:
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
