"""Per-shard micro-batch scheduling under a size / latency budget.

Windows wait in per-system *lanes*.  Two triggers flush them (the clock
is injected — the scheduler never reads wall time itself):

* **size** — a lane holding ``max_batch`` windows flushes its full
  chunks, lanes in sorted system order;
* **latency** — once the oldest lane head of the whole shard has waited
  ``max_latency`` seconds, *every* lane flushes its remainder, lanes
  ordered oldest head first.  One deadline per shard is what lets the
  owner sleep until :meth:`MicroBatchScheduler.oldest_deadline` (less
  the time its flush takes) and then score everything waiting, in one
  call where the worker can.  The owner decides how early: it passes
  ``now + lead`` as the time to :meth:`~MicroBatchScheduler.expired` and
  :meth:`~MicroBatchScheduler.ready_batches`, so the flush it starts
  lands by the deadline (:meth:`repro.runtime.shard.ShardState.flush_ready`).

``drain`` flushes everything, in sorted system order.

The size trigger and ``drain`` emit consecutive ``max_batch``-sized
chunks of one lane, one chunk per batch.  Because a lane's arrival
order depends only on that system's stream — never on which shard it
runs on — the sequence of batches handed to the model without a
latency budget is identical for any shard count.  That chunk-boundary
invariant is what makes ``repro replay --shards N`` byte-identical for
every N; the latency trigger, whose flush times follow the wall clock,
is off in replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PendingWindow", "MicroBatchScheduler"]


@dataclass
class PendingWindow:
    """One window awaiting model scoring.

    ``index`` is the per-system window ordinal (the stable window id is
    ``f"{system}:{index}"``); ``gate_seconds`` carries the pattern-gate
    latency so the per-window latency histogram can add the batch share
    when the window is finally scored.
    """

    system: str
    index: int
    window: list = field(default_factory=list)
    pattern: tuple = ()
    enqueued_at: float = 0.0
    gate_seconds: float = 0.0

    @property
    def window_id(self) -> str:
        return f"{self.system}:{self.index}"


class MicroBatchScheduler:
    """Accumulates :class:`PendingWindow`s and emits flush batches."""

    def __init__(self, max_batch: int = 16, max_latency: float | None = None):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_latency is not None and max_latency < 0:
            raise ValueError(f"max_latency must be >= 0, got {max_latency}")
        self.max_batch = max_batch
        self.max_latency = max_latency
        self._lanes: dict[str, list[PendingWindow]] = {}
        # What lets ready_batches answer "nothing due" without touching
        # the lanes: whether some lane holds a full chunk, and the
        # earliest lane head's enqueue time (the shard's one deadline).
        self._full = False
        self._oldest_head = float("inf")

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def add(self, pending: PendingWindow) -> None:
        """Queue one window in its system lane."""
        lane = self._lanes.setdefault(pending.system, [])
        lane.append(pending)
        if len(lane) == 1 and pending.enqueued_at < self._oldest_head:
            self._oldest_head = pending.enqueued_at
        if len(lane) >= self.max_batch:
            self._full = True

    def _pop_chunks(self, lane: list[PendingWindow],
                    include_partial: bool) -> list[list[PendingWindow]]:
        batches: list[list[PendingWindow]] = []
        while len(lane) >= self.max_batch:
            batches.append(lane[: self.max_batch])
            del lane[: self.max_batch]
        if include_partial and lane:
            batches.append(lane[:])
            lane.clear()
        return batches

    def expired(self, now: float) -> bool:
        """Whether the shard's oldest lane head has used up its budget by
        ``now`` (the owner's flush horizon)."""
        return (self.max_latency is not None
                and now - self._oldest_head >= self.max_latency)

    def ready_batches(self, now: float) -> list[list[PendingWindow]]:
        """Batches due under the size or latency trigger.

        Full ``max_batch`` chunks are always due.  Once the oldest head
        in any lane has waited ``max_latency``, every lane flushes its
        remainder too (full chunks, then a final partial one), lanes
        ordered by head enqueue time.
        """
        if self.expired(now):
            lanes = sorted((lane for lane in self._lanes.values() if lane),
                           key=lambda lane: (lane[0].enqueued_at,
                                             lane[0].system))
            batches = [chunk for lane in lanes
                       for chunk in self._pop_chunks(lane, include_partial=True)]
            self._full = False
            self._oldest_head = float("inf")
            return batches
        if not self._full:
            return []
        batches: list[list[PendingWindow]] = []
        oldest_head = float("inf")
        for system in sorted(self._lanes):
            lane = self._lanes[system]
            batches.extend(self._pop_chunks(lane, include_partial=False))
            if lane and lane[0].enqueued_at < oldest_head:
                oldest_head = lane[0].enqueued_at
        self._full = False
        self._oldest_head = oldest_head
        return batches

    def drain(self) -> list[list[PendingWindow]]:
        """Flush everything, including partial lanes (end of stream)."""
        batches: list[list[PendingWindow]] = []
        for system in sorted(self._lanes):
            batches.extend(self._pop_chunks(self._lanes[system],
                                            include_partial=True))
        self._full = False
        self._oldest_head = float("inf")
        return batches

    def oldest_deadline(self) -> float | None:
        """When the latency trigger fires next: the oldest lane head's
        enqueue time plus ``max_latency`` (None when nothing waits or
        there is no budget)."""
        if self.max_latency is None or self._oldest_head == float("inf"):
            return None
        return self._oldest_head + self.max_latency
