"""A bounded, thread-safe LRU cache for probe results.

The gateway keys entries by ``(canonical token tuple, θ, func)`` — the
full identity of an exact probe — and stores the *complete* hit list, so
one cached entry serves every ``k`` truncation and every ``exclude``
filter of the same query.  Capacity 0 disables caching (every ``get``
misses, ``put`` is a no-op).

Every operation takes an internal lock: an unsynchronized
``OrderedDict`` corrupts under concurrent ``move_to_end``/``popitem`` —
``tests/test_service_cache_stress.py`` hammers exactly that pattern.

Hit/miss accounting lives in the caller's
:class:`~repro.mapreduce.counters.Counters` (the cache itself stays a dumb
container so it can be unit-tested in isolation).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from repro.errors import ConfigError

V = TypeVar("V")


class LRUCache(Generic[V]):
    """Least-recently-used mapping with a fixed capacity (thread-safe)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[V]:
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                return None
            return self._entries[key]

    def put(self, key: Hashable, value: V) -> None:
        """Insert/refresh ``key``; evicts the least recently used entry."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
