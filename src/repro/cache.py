"""The one host-side cache primitive: a bounded, thread-safe LRU map.

Every cache above the filters — cluster results, CRS results, decoded
clauses, FS1 query codewords, FS2 match plans, the solve engine's
candidate lists — is an :class:`LruCache`.  They exist only to save host
wall clock; none is visible to the modelled 1989 ledger.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["LruCache"]


class LruCache:
    """An LRU map bounded by entry count and, optionally, by bytes.

    ``max_entries`` caps the number of entries (``<= 0`` admits nothing).
    ``max_bytes`` with ``cost`` adds a second bound: every value is
    charged ``cost(value)`` on the way in, the least recently used
    entries are evicted until both bounds hold, and a value costlier
    than the whole budget is not admitted (it would evict everything
    else and still not fit).  Replacing a key's value replaces its
    charge, so :attr:`bytes` is always the sum of the resident costs.
    One internal lock covers every operation.  ``hits`` / ``misses`` /
    ``evictions`` count on the object and, given ``obs`` and ``prefix``,
    as ``<prefix>.hits`` / ``.misses`` / ``.evictions`` counters.

    **There is no invalidation API, on purpose.**  A key names immutable
    content.  A tenant whose value depends on mutable state puts that
    state's *generation* — a counter bumped, under the state's own
    lock, after every change — in the key, reading it once before it
    computes the value and using that same reading to probe and to
    store.  Why no stale value is ever served: the generation read
    *g* was published after every mutation up to *g* had been applied,
    so a value computed after reading it contains all of them, and
    storing it under *g* claims nothing more.  A mutation that lands
    while the value is being computed moves the generation past *g*
    before it completes, and readers that start after it probe with the
    new generation — the entry under *g* is dead: never probed again,
    it ages out through the ordinary LRU bound (everything live was
    touched after it).  So a probe at *g* can only return a value that
    holds every mutation completed before the probe, which is what a
    fresh computation would be allowed to return.  No clear-on-change,
    no compare-before-insert, no version threaded through the caller.
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: int | None = None,
        cost: Callable[[Any], int] | None = None,
        obs=None,
        prefix: str = "",
    ):
        if (max_bytes is None) != (cost is None):
            raise ValueError("max_bytes and cost come together")
        self.max_entries = max_entries
        self.max_bytes = math.inf if max_bytes is None else max_bytes
        self._cost = cost
        self._obs = obs
        self._prefix = prefix
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        #: sum of the resident entries' costs (0 without a byte bound)
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        """The value under ``key`` (now most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            self._count("misses", 1)
            return None
        self._count("hits", 1)
        return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as most recently used, evicting to the bounds."""
        cost = 0 if self._cost is None else self._cost(value)
        if self.max_entries <= 0 or cost > self.max_bytes:
            return
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous[1]
            self._entries[key] = (value, cost)
            self.bytes += cost
            while (
                len(self._entries) > self.max_entries
                or self.bytes > self.max_bytes
            ):
                _, (_, freed) = self._entries.popitem(last=False)
                self.bytes -= freed
                evicted += 1
            self.evictions += evicted
        if evicted:
            self._count("evictions", evicted)

    def __contains__(self, key: Hashable) -> bool:
        """Membership only: neither recency nor the counters move."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (memory release; never needed for freshness)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def _count(self, event: str, amount: int) -> None:
        if self._obs is not None:
            self._obs.counter(f"{self._prefix}.{event}").inc(amount)
