"""Bounded admission control for the counting server.

Counting runs are CPU-bound and can take seconds, so the server cannot
simply accept every connection the threading HTTP layer hands it: a burst
of distinct requests would pile up unbounded concurrent runs.  Instead every
*counting* request (cache hits are free and bypass admission) must first
acquire a slot from a :class:`BoundedRequestQueue`.  When all slots are
taken the server answers ``429 Too Many Requests`` with a ``Retry-After``
hint derived from the average observed service time — honest backpressure
instead of silent queueing.
"""

from __future__ import annotations

import threading
from typing import Dict


class BoundedRequestQueue:
    """A thread-safe counting semaphore with service-time bookkeeping.

    ``try_acquire`` never blocks: admission is either immediate or refused,
    because a refused client holding an open socket is strictly worse than
    a 429 it can retry.  ``release(service_seconds)`` returns the slot and
    feeds the moving picture of how long one counting run takes, which
    :meth:`retry_after_seconds` turns into the ``Retry-After`` header.

    >>> queue = BoundedRequestQueue(capacity=1)
    >>> queue.try_acquire()
    True
    >>> queue.try_acquire()          # full: one slot, already taken
    False
    >>> queue.release(2.0)
    >>> queue.try_acquire()
    True
    >>> queue.release(4.0)
    >>> queue.retry_after_seconds()  # ceil of the mean service time (3.0s)
    3
    """

    def __init__(self, capacity: int = 8) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            raise TypeError(f"capacity must be an int, got {capacity!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._in_flight = 0
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._total_service_seconds = 0.0

    def try_acquire(self) -> bool:
        """Take a slot if one is free; ``False`` (never blocks) otherwise."""
        with self._lock:
            if self._in_flight >= self.capacity:
                self._rejected += 1
                return False
            self._in_flight += 1
            self._admitted += 1
            return True

    def release(self, service_seconds: float = 0.0) -> None:
        """Return a slot, recording how long the admitted run took."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching try_acquire()")
            self._in_flight -= 1
            self._completed += 1
            self._total_service_seconds += max(0.0, float(service_seconds))

    def retry_after_seconds(self) -> int:
        """The ``Retry-After`` hint: mean service time rounded up, >= 1."""
        with self._lock:
            return self._retry_after_locked()

    def snapshot(self) -> Dict[str, object]:
        """Counters for ``/stats``: capacity, in-flight, admitted, rejected."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "retry_after_seconds": self._retry_after_locked(),
            }

    def _retry_after_locked(self) -> int:
        if self._completed == 0:
            return 1
        mean = self._total_service_seconds / self._completed
        return max(1, int(mean) + (mean > int(mean)))
