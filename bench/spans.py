"""In-memory spans and counts taken around the benchmark's calls into cmtop.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent), the round it belongs
to, and an optional tag (for example ``iso`` on an invariant call whose
boundary map is bijective).  Nothing is written until ``dump`` is called at
the end of the run.  Untraced runs use ``NullTracer``, whose ``span``
returns one shared do-nothing context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.round = -1  # -1 marks set-up
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        record = {"id": len(self.spans), "name": name, "tag": tag,
                  "parent": self._stack[-1] if self._stack else None,
                  "round": self.round, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span never overlap (one thread, strictly nested
        context managers), so their durations add up."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path, extra: dict) -> None:
        selfs = self.self_times()
        spans = [dict(s, self=t) for s, t in zip(self.spans, selfs)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts), **extra}, fh)


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, tag: str | None = None):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass
