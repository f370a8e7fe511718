"""In-memory span and count recorder for the traced run.

The program has no spans of its own yet, so the benchmark records one
around each call it makes into a layer's public function: name, start,
end, the span that caused it, and the id of the run it belongs to.
Everything stays in memory; the runner writes :meth:`Tracer.to_dict`
out when the run has ended.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self._clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the body as one span, child of the enclosing span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": self._clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._stack.pop()

    def add_span(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> dict:
        """Record a span timed elsewhere (a request on another thread)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "run": self.run_id,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def to_dict(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "self_time_s": self.self_times(),
        }
