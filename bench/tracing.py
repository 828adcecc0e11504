"""In-memory spans recorded around the benchmark's calls into effectkit.

A span has a name, start and end times, the index of the span that caused
it, the operation it belongs to and a few attributes.  Spans are appended to
a list while the traced pass runs and written out once it has ended.  A
span's self time is its duration minus the time covered by its direct
children; children of one span never overlap, because one closed-loop
caller makes every call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self):
        self._op += 1

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "attrs"],
                "spans": [[s.name, s.start, s.end, s.parent, s.op,
                           {k: str(v) for k, v in s.attrs.items()}]
                          for s in self.spans],
            }, fh)


class _Open:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> dict:
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.span = Span(self.name, perf_counter(), parent, tr._op)
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.span)
        return self.span.attrs

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        return False
