"""In-memory span recorder for the traced benchmark run.

A span is one timed call: name, start, end, parent span id and run id,
plus optional counts (``calls`` for a span that covers a batch of calls).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time


class Tracer:
    """Records nested spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str, calls: int = 1) -> "_Span":
        return _Span(self, name, calls)

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        """Span duration minus the time its direct children cover."""
        return self.duration(span) - sum(
            self.duration(s) for s in self.children(span))

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "clock": "perf_counter_s",
                       "spans": self.spans}, fh, indent=1)
            fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, calls: int):
        self._tracer = tracer
        self._rec = {"id": len(tracer.spans), "name": name,
                     "parent": tracer._stack[-1] if tracer._stack else None,
                     "run_id": tracer.run_id, "calls": calls,
                     "start": None, "end": None}

    def __enter__(self) -> dict:
        tr = self._tracer
        tr.spans.append(self._rec)
        tr._stack.append(self._rec["id"])
        self._rec["start"] = time.perf_counter()
        return self._rec

    def __exit__(self, *exc) -> None:
        self._rec["end"] = time.perf_counter()
        self._tracer._stack.pop()
