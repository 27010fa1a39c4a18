"""In-memory spans around calls into grouptree's public functions.

The tracer patches module and class attributes from outside the package, the
way the acceptance tests patch ``experiments.build_model``.  Each call becomes
a span with a task id, a parent span, a start and an end, plus the counts
read off its result after the clock has stopped.  Bookkeeping time spent
inside a span is recorded and left out of that span's self time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

_INHERITED = object()  # marks an attribute the owner did not define itself


class Span:
    __slots__ = ("sid", "parent", "task", "name", "start", "end", "counts", "bookkeeping", "children_s")

    def __init__(self, sid, parent, task, name):
        self.sid = sid
        self.parent = parent
        self.task = task
        self.name = name
        self.start = self.end = 0.0
        self.counts = {}
        self.bookkeeping = 0.0
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.bookkeeping

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "task": self.task,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans; ``task`` is the id stamped on spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.task = None

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent.sid if parent else None, self.task, name)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
            if parent is not None:
                parent.children_s += span.duration
        if count is not None:
            span.counts = count(out, args, kwargs)
            if parent is not None:
                parent.bookkeeping += perf_counter() - span.end
        return out

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name(args, kwargs) if callable(name) else name, fn, args, kwargs, count)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, name, count)`` targets; restore on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                saved.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    def layer_totals(self, tasks) -> tuple[dict[str, float], dict[str, float]]:
        """Summed self time and summed counts per span name, over ``tasks``."""
        seconds: dict[str, float] = {}
        counts: dict[str, float] = {}
        for span in self.spans:
            if span.task not in tasks:
                continue
            seconds[span.name] = seconds.get(span.name, 0.0) + span.self_s
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        return seconds, counts
