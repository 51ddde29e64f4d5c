"""In-memory spans around the package's public functions.

The benchmark installs a :class:`Tracer` only for traced runs.  It replaces
each target attribute -- including the names callers bound at import, such
as ``wpomdp.sampling.bayes_update`` -- with a wrapper that records one span
(name, start, end, parent) per call, and puts the originals back on
``uninstall``.  Spans stay in memory; the benchmark reduces them to
per-layer totals, self times and percentiles after each unit of work.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.muted = 0
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if self._local.muted:
            yield
            return
        with self._lock:
            i = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0,
                                   stack[-1] if stack else None, threading.get_ident()))
        stack.append(i)
        try:
            yield
        finally:
            stack.pop()
            self.spans[i].end = time.perf_counter()

    @contextmanager
    def muted(self):
        """Record nothing below this point on the calling thread."""
        self._stack()
        self._local.muted += 1
        try:
            yield
        finally:
            self._local.muted -= 1

    def count(self, name: str, n: int) -> None:
        if not getattr(self._local, "muted", 0):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``counter(*args, **kwargs)`` optionally returns a work count that is
        added to ``counts[name]`` for each call.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(name, counter(*args, **kwargs))
            with tracer.span(name):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        return np.array([s.end - s.start for s in self.spans if s.name == name])

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def calls(self, name: str) -> int:
        return int(sum(1 for s in self.spans if s.name == name))

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name.

        Children of one parent run on the parent's thread and never
        overlap, so the covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def roots_within(self, start: float, end: float) -> float:
        """Summed duration of the calling thread's root spans in [start, end]."""
        me = threading.get_ident()
        return float(sum(
            s.end - s.start for s in self.spans
            if s.parent is None and s.thread == me and s.start >= start and s.end <= end
        ))
