"""Content-addressed result cache for the counting server.

The cache maps a :func:`~repro.counting.api.request_fingerprint` — the
SHA-256 of the canonical automaton document plus the normalised request
knobs — to a finished :meth:`~repro.counting.api.CountReport.to_dict`
payload.  Because the key hashes the *computation content* rather than any
client identity, a million clients asking about the same regex with the
same knobs share one counting run: the first request pays for the trials,
every later duplicate is answered from memory without touching an engine.

Entries are kept in a bounded LRU: a hit refreshes recency, a store over
capacity evicts the least-recently-used key.  All operations take the
internal lock, so one cache instance can safely back every handler thread
of a :class:`~repro.serve.server.CountingServer`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional


class ResultCache:
    """A thread-safe bounded LRU mapping fingerprints to report payloads.

    >>> cache = ResultCache(max_entries=2)
    >>> cache.put("a", {"estimate": 1.0})
    >>> cache.get("a")
    {'estimate': 1.0}
    >>> cache.put("b", {"estimate": 2.0})
    >>> cache.put("c", {"estimate": 3.0})   # evicts "a": capacity 2, LRU
    >>> cache.get("a") is None
    True
    >>> snapshot = cache.snapshot()
    >>> snapshot["hits"], snapshot["misses"], snapshot["evictions"]
    (1, 1, 1)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if not isinstance(max_entries, int) or isinstance(max_entries, bool):
            raise TypeError(f"max_entries must be an int, got {max_entries!r}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, refreshing its recency, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            self._stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        """Counters for ``/stats``: hits, misses, stores, evictions, entries."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
            }
