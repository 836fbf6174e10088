"""The one bounded, locked LRU behind every in-process cache on the read
path — the analogue of the reference's single ``grn_cache`` consulted by
proc_select (lib/proc.c:986-996) while one thread per request shares
the index. Readers of on-disk state are keyed on :func:`file_stamp`, so
a rewritten file opens a new reader without anyone clearing a cache."""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict


def file_stamp(path: str) -> tuple[int, int, int] | None:
    """``(st_ino, st_mtime_ns, st_size)`` of ``path``; None when absent.
    An atomic rewrite (``os.replace``) always changes the inode."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


class BoundedCache:
    """Thread-safe LRU bounded by item count or by ``sizeof`` bytes; an
    entry over ``max_bytes // 4`` is not stored, so one huge value
    cannot flush the rest. Counts hits, misses and evictions."""

    def __init__(self, max_items: int | None = None, max_bytes: int | None = None, sizeof=None):
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()    # key -> (value, nbytes, stamp)
        self._max_items = math.inf if max_items is None else max_items
        self.max_bytes = math.inf if max_bytes is None else max_bytes
        self._sizeof = sizeof
        self.bytes = self.hits = self.misses = self.evictions = 0

    @property
    def max_items(self) -> int | float:
        return self._max_items

    @max_items.setter
    def max_items(self, n: int) -> None:
        with self._lock:
            self._max_items = n
            self._evict()

    def __len__(self) -> int:
        return len(self._data)

    def _evict(self) -> None:
        data = self._data
        while len(data) > self._max_items or self.bytes > self.max_bytes:
            self.bytes -= data.popitem(last=False)[1][1]
            self.evictions += 1

    def get(self, key, default=None):
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, value, stamp=None) -> None:
        nb = self._sizeof(value) if self._sizeof is not None else 0
        with self._lock:
            data = self._data
            old = data.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            if nb <= self.max_bytes / 4:
                data[key] = (value, nb, stamp)
                self.bytes += nb
                if len(data) > self._max_items or self.bytes > self.max_bytes:
                    self._evict()

    def get_or_load(self, key, load, stamp=None):
        """The value of ``key``, else ``load(key)`` (run outside the
        lock) stored under it. An entry put under another ``stamp`` is
        stale: a miss, replaced by the load."""
        data = self._data
        with self._lock:
            entry = data.get(key)
            if entry is not None and entry[2] == stamp:
                data.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
        value = load(key)
        self.put(key, value, stamp)
        return value

    def pop(self, key, default=None):
        with self._lock:
            value, nb, _ = self._data.pop(key, (default, 0, None))
            self.bytes -= nb
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.bytes = 0

    def values(self) -> list:
        with self._lock:
            return [entry[0] for entry in self._data.values()]

    def stats(self) -> dict:
        with self._lock:
            return {"items": len(self._data), "bytes": self.bytes, "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions}
