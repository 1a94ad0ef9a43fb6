"""In-memory spans around the benchmark's own calls into ``mrc_wpt``.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent) and a small dict of
attributes: counts taken from the call's public result, such as the
``iterations`` of an ``OptimizationResult``.  Spans are kept in a list and
written out once, when the run ends.  The untraced mode uses
:class:`NullTracer`, whose ``span`` costs one attribute lookup and one
``with`` statement.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans of one thread.

    ``lost(start, end)``, when given, says how much of an interval went to
    work that is not the program's (the benchmark's speed samples); span
    durations leave it out.
    """

    def __init__(self, lost=None) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._lost = lost

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def duration(self, span: dict) -> float:
        lost = self._lost(span["start"], span["end"]) if self._lost else 0.0
        return span["end"] - span["start"] - lost

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children of one span run one after another in this single-threaded
        benchmark, so the covered time is the sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += self.duration(s)
        return {s["id"]: self.duration(s) - covered[s["id"]] for s in self.spans}

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds."""
        own = self.self_times()
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += self.duration(s)
            row["self_s"] += own[s["id"]]
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)


class NullTracer:
    """Stand-in for :class:`Tracer` when tracing is off: records nothing."""

    def __init__(self) -> None:
        self._null = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._null
