"""Spans and counters recorded from outside the program.

The benchmark does not change the program: a :class:`Tracer` replaces
public functions and methods with wrappers that time each call and
restores the originals afterwards. Spans (name, start, end, parent,
request id) and counters stay in memory and are written once, when the
run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span and counter recorder.

    ``enabled`` gates recording, so one run can interleave traced and
    untraced operations with the wrappers installed; with it off a
    wrapper costs one attribute test.
    """

    MAX_SPANS = 400_000

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []          # (id, name, start, end, parent, request)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_request = 0
        self._patched: list[tuple[object, str, object]] = []

    # ---- spans -------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, request: bool = False):
        """Record ``name`` around the body. ``request=True`` opens a new
        request id that the spans inside inherit."""
        if not self.enabled:
            yield
            return
        st = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            if request or not st:
                req = self._next_request
                self._next_request += 1
            else:
                req = st[-1][1]
        parent = st[-1][0] if st else None
        st.append((sid, req))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            if len(self.spans) < self.MAX_SPANS:
                self.spans.append((sid, name, t0, t1, parent, req))
            else:
                self.dropped += 1

    def add_span(self, name: str, t0: float, t1: float) -> None:
        """Record a span measured elsewhere (e.g. a stage time the
        program reports), as a child of the open span."""
        if not self.enabled:
            return
        st = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent, req = (st[-1][0], st[-1][1]) if st else (None, -1)
        self.spans.append((sid, name, t0, t1, parent, req))

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += n

    # ---- wrappers ----------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper. ``on_result``
        (called with the result) may record counters."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name):
                out = original(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- reading -----------------------------------------------------
    def durations(self, name: str, request: int | None = None) -> list[float]:
        return [
            s[3] - s[2] for s in self.spans
            if s[1] == name and (request is None or s[5] == request)
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def coverage(self, root_names: set[str]) -> float:
        """Share of the time inside root spans (named ``root_names``)
        that their direct children cover; overlapping children count
        once."""
        kids: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                kids[s[4]].append((s[2], s[3]))
        covered = total = 0.0
        for s in self.spans:
            if s[1] not in root_names:
                continue
            total += s[3] - s[2]
            end = s[2]
            for a, b in sorted(kids.get(s[0], [])):
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
        return covered / total if total else 0.0

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "request"],
                "spans": self.spans,
                "counters": dict(self.counters),
                "dropped": self.dropped,
            }, fh)
