"""Spans around calls into the program's modules, recorded from outside.

`Tracer.wrap` replaces a module attribute (or a class method) with a
wrapper that records one span per call; `Tracer.restore` puts every
original back. Spans are kept in memory and written out when the run
ends. A layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    phase: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder with per-name counters and failure counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (name, phase) -> total
        self.failures: Counter = Counter()
        self.request: int | None = None
        self.phase: str | None = None
        self.paused = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                 self.request, self.phase)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield
        except Exception:
            self.failures[name] += 1
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if not self.paused:
            self.counts[(name, self.phase)] += n

    @contextmanager
    def pause(self):
        """Run checks and oracles without recording them."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, owner: object, attr: str, name: str,
             after: Callable | None = None) -> None:
        """Record a span named `name` around every call to owner.attr.

        `after(tracer, args, kwargs, result)` runs once the call returns,
        to count work the call did.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None and not self.paused:
                after(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] for s in self.spans}

    def totals(self) -> dict[tuple[str, str | None], dict]:
        """(span name, phase) -> calls, inclusive seconds and self seconds."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = out[(s.name, s.phase)]
            row["calls"] += 1
            row["s"] += s.duration
            row["self_s"] += selfs[s.id]
        return dict(out)

    def layer_table(self) -> dict[str, dict]:
        """Layer -> calls, self seconds and failed calls, over the whole run."""
        selfs = self.self_times()
        table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for s in self.spans:
            row = table[s.name.split(".", 1)[0]]
            row["calls"] += 1
            row["self_s"] += selfs[s.id]
        for name, n in self.failures.items():
            table[name.split(".", 1)[0]]["failed"] += n
        return dict(sorted(table.items()))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "request": s.request, "phase": s.phase}) + "\n")
