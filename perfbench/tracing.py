"""In-memory spans for the traced benchmark run.

A span records its name, start, end, the span that contains it, the op it
belongs to, the pass (or set-up repetition) it ran in, and any counts taken
at that boundary.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self._stack = []
        self._ops = 0

    @contextmanager
    def span(self, name, op=False):
        """Time the body as one span; the yielded dict takes counts."""
        if op:
            self._ops += 1
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": self._ops if op else (parent["op"] if parent else None),
            "phase": self.phase,
            "id": len(self.spans),
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

