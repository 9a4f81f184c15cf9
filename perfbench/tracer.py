"""In-memory span and count recorder for the traced benchmark run.

Spans are opened by the benchmark around the public calls an operation
consists of; nothing inside balltrace is instrumented.  Every span keeps its
name, start, end, parent span and operation id.  Spans and counts stay in
memory until the run ends and are then written out in one document.

A span's self time is its duration minus the time covered by its direct
children.  The benchmark is single-threaded, so children of one span never
overlap and their durations can simply be summed.

Work counts come from the program itself: `calls` routes a module attribute
(a function the program calls through its module globals) through a counting
wrapper for the length of a block, so the counts are the calls the program
really makes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counts; `op` is set by the caller before each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, 0.0)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    @contextmanager
    def calls(self, module, attr: str, tally=None, span: str | None = None):
        """Route calls of `module.attr` through a wrapper for the block.

        `tally(args, result, seconds)` returns {count name: increment} for one
        call; the sums are recorded as counts when the block ends.  With
        `span`, every call also opens a span of that name.
        """
        original = getattr(module, attr)
        sums: dict[str, float] = {}

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if span is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span):
                    result = original(*args, **kwargs)
            if tally is not None:
                for name, value in tally(args, result, time.perf_counter() - start).items():
                    sums[name] = sums.get(name, 0.0) + value
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)
            for name, value in sums.items():
                self.count(name, value)

    def self_times(self) -> list[tuple[Span, float]]:
        """(span, self time in seconds) for every recorded span."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        return [(sp, (sp.end - sp.start) - c) for sp, c in zip(self.spans, covered)]

    def to_json_dict(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
                for s in self.spans
            ],
            "counts": [{"op": op, "name": name, "value": value} for op, name, value in self.counts],
        }
