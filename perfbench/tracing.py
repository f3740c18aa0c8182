"""In-memory spans recorded around the benchmark's calls into phaseloc.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent), the op it
belongs to, and optional counts.  Nothing is written until ``dump``.
Self time is a span's duration minus the union of the intervals its
child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``enabled=False`` makes ``span`` a no-op context."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield counts
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            span.counts = counts

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        covered = 0.0
        reach = span.start
        children = sorted(
            (s.start, s.end) for s in self.spans if s.parent == index
        )
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write one JSON object per span, with its self time, to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                row = asdict(span)
                row["self"] = self.self_time(i)
                fh.write(json.dumps(row) + "\n")
