"""Bounded shard ingress queues with explicit backpressure policies.

A :class:`ShardQueue` is the admission point of one shard.  Overflow
behaviour is a named policy, never a silent default:

* ``block`` — the producer must wait (threaded mode) or pump the shard
  inline (synchronous mode); nothing is ever lost.  ``try_offer`` reports
  ``OFFER_FULL`` and the caller decides how to make room.
* ``reject`` — the new record is shed and counted.
* ``drop-oldest`` — the oldest queued record is evicted to admit the new
  one (bounded staleness, favoured for live monitoring feeds).

The queue is thread-safe; the synchronous engine simply never contends on
it.  Shed records are counted both on the instance and through the
``repro.obs`` registry counters the owning engine wires in.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Generic, TypeVar

from ..testing.faultpoints import DROPPED, fault_point

T = TypeVar("T")

__all__ = [
    "BACKPRESSURE_POLICIES", "OFFER_OK", "OFFER_REJECTED", "OFFER_DROPPED",
    "OFFER_FULL", "ShardQueue",
]

BACKPRESSURE_POLICIES = ("block", "reject", "drop-oldest")

OFFER_OK = "ok"
OFFER_REJECTED = "rejected"
OFFER_DROPPED = "dropped-oldest"
OFFER_FULL = "full"


class ShardQueue(Generic[T]):
    """Bounded FIFO with a named overflow policy and shed accounting."""

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {', '.join(BACKPRESSURE_POLICIES)}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.total_offered = 0
        self.total_rejected = 0
        self.total_dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def is_full(self) -> bool:
        with self._lock:
            return len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    def _admit_locked(self, item: T) -> str:
        """Apply the overflow policy; caller holds the lock."""
        if fault_point("runtime.queues.admit", item) is DROPPED:
            # Injected silent ingress loss: the producer sees OFFER_OK but
            # the record never lands (what the invariants must catch).
            self.total_offered += 1
            return OFFER_OK
        self.total_offered += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            self._not_empty.notify()
            return OFFER_OK
        if self.policy == "reject":
            self.total_rejected += 1
            return OFFER_REJECTED
        if self.policy == "drop-oldest":
            self._items.popleft()
            self.total_dropped += 1
            self._items.append(item)
            self._not_empty.notify()
            return OFFER_DROPPED
        # block: the caller must free space (pump inline or wait).
        self.total_offered -= 1
        return OFFER_FULL

    def try_offer(self, item: T) -> str:
        """Non-blocking admit; under ``block`` a full queue returns
        :data:`OFFER_FULL` so the caller can drain and retry."""
        with self._lock:
            return self._admit_locked(item)

    def offer(self, item: T, timeout: float | None = None) -> str:
        """Admit, waiting for space under the ``block`` policy.

        Returns the admission outcome; :data:`OFFER_FULL` only when a
        ``block`` wait timed out.
        """
        with self._not_full:
            outcome = self._admit_locked(item)
            while outcome == OFFER_FULL:
                if not self._not_full.wait(timeout=timeout):
                    return OFFER_FULL
                outcome = self._admit_locked(item)
            return outcome

    # ------------------------------------------------------------------
    def peek(self) -> T | None:
        """The head item without removing it (``None`` when empty).

        Only meaningful under a single consumer — the synchronous engine
        uses it for its global-order merge across shard queues.
        """
        with self._lock:
            return self._items[0] if self._items else None

    def poll(self, max_items: int = 100) -> list[T]:
        """Dequeue up to ``max_items`` in FIFO order (never blocks)."""
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        with self._lock:
            batch: list[T] = []
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            if batch:
                self._not_full.notify_all()
            return batch

    def poll_wait(self, max_items: int, timeout: float) -> list[T]:
        """Like :meth:`poll` but waits up to ``timeout`` for a first item."""
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout=timeout)
            batch: list[T] = []
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            if batch:
                self._not_full.notify_all()
            return batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardQueue(depth={len(self)}/{self.capacity}, "
                f"policy={self.policy!r})")
