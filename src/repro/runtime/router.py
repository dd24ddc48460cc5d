"""Shard routing: sticky, balanced system-to-shard assignment.

Partitioning by *system* (not by record) is what keeps sharding
invisible to detection results: all records of one system arrive at the
same shard in order, so windowing, pattern dedup and batch boundaries for
that system are identical whatever the shard count.  Systems are dealt
round-robin in the order they are first seen, so ``k`` systems over
``n`` shards differ by at most one per shard (a hash left whole shards
empty on a six-system stream).  An assignment never changes once made,
and a stream always meets its systems in the same order, so the mapping
is deterministic for a given stream.
"""

from __future__ import annotations

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps system ids onto ``[0, shards)``, balanced and sticky."""

    def __init__(self, shards: int):
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.shards = shards
        self._assigned: dict[str, int] = {}

    def shard_of(self, system: str) -> int:
        """The shard owning this system; a new system takes the next
        shard in turn."""
        shard = self._assigned.get(system)
        if shard is None:
            shard = len(self._assigned) % self.shards
            self._assigned[system] = shard
        return shard

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={self.shards})"
