"""Inference workers: the units a shard's supervisor drives.

A worker turns one micro-batch of :class:`~repro.runtime.scheduler.PendingWindow`
into one :class:`~repro.core.report.AnomalyReport` per window, in order.
Three implementations:

* :class:`ModelWorker` — the production path over a fitted
  :class:`~repro.core.pipeline.LogSynergy`: the event ids parsed at
  admission go straight to ``score_event_windows`` (gather + one
  forward per window-length group), with no second parse.  A batch may
  mix systems (a shard's latency flush); each row is gathered through
  its own system's featurizer, still in one forward.
* :class:`SyntheticWorker` — deterministic content-hash scoring with a
  declarative per-batch cost, for tests and the runtime benchmark (the
  cost stands in for LLM/accelerator inference latency, which LogLLM and
  LogGPT identify as the production bottleneck).
* :class:`FlakyWorker` — fault injection: raises
  :class:`WorkerError` for a scripted number of calls, then delegates.

A worker says how its records are admitted (``event_fn``), whether it
is gated (``gated``), whether it fuses lanes (``fuse_lanes``) and which
pipeline a swap loads (:class:`ModelWorker`'s ``model``); the runtime
and its shards read all four from the one worker they are built from.
A worker carries no fault hooks: its supervisor fires the
``runtime.worker.*`` fault points around every call.
"""

from __future__ import annotations

import time
import zlib
from typing import Protocol

from ..core.report import AnomalyReport, build_report
from .scheduler import PendingWindow

__all__ = [
    "WorkerError", "InferenceWorker", "ModelWorker", "SyntheticWorker",
    "EnsembleWorker", "FlakyWorker", "message_event",
]


class WorkerError(RuntimeError):
    """A worker failed to score a batch (retryable by the supervisor)."""


class InferenceWorker(Protocol):
    """One report per pending window, in batch order.

    A batch may mix systems.  A worker whose class sets ``fuse_lanes``
    scores such a batch in one call (one forward), so a shard hands it
    a latency flush as one batch; other workers get that flush lane by
    lane, oldest head first, so the oldest windows' reports do not wait
    on the younger lanes' scoring.

    A worker whose class sets ``gated = False`` gets every window: its
    shard's pattern library neither answers repeats nor absorbs
    followers, and its verdicts are not memoized.  Workers are gated
    unless they say otherwise.

    ``event_fn(system, message) -> (event id, masked text or None)`` is
    the worker's admission hook: each record is parsed by it once, and
    the ids it stamps are what the worker scores.  A worker without one
    is admitted through :func:`message_event`.
    """

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        ...  # pragma: no cover - protocol


def message_event(system: str, message: str) -> tuple[int, None]:
    """Featurizer-free admission: the message's CRC32 bucket as its
    event id, and no masked text (nothing is parsed, so nothing is
    masked; the LOF member masks such entries itself).

    Stands in for the model's per-system Drain parse in runtimes driven
    by a :class:`SyntheticWorker` or a detector ensemble without a live
    model member.
    """
    return zlib.crc32(message.encode("utf-8")) % 4096, None


class ModelWorker:
    """Scores batches through LogSynergy's batch-first detection path.

    Records are admitted through the pipeline's own per-system parse
    (:meth:`~repro.core.pipeline.LogSynergy.event_id_of`), and ``model``
    is the pipeline a weight swap loads into.
    """

    fuse_lanes = True

    def __init__(self, model):
        if model.model is None:
            raise ValueError("ModelWorker requires a fitted LogSynergy model")
        self.model = model
        self.event_fn = model.event_id_of

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        systems = [p.system for p in batch]
        grid = [[entry.event_id for entry in p.window] for p in batch]
        messages = [[entry.message for entry in p.window] for p in batch]
        timestamps = [[entry.timestamp for entry in p.window] for p in batch]
        return self.model.score_event_windows(
            systems, grid, messages, timestamps)

    def load_weights(self, state: dict) -> None:
        """Hot-swap the served model's weights (the promotion path)."""
        self.model.model.load_state_dict(state)


class EnsembleWorker:
    """Scores batches through a :class:`repro.detectors.Ensemble`.

    A batch is split by system, in order of first appearance, and each
    system's windows go to :meth:`~repro.detectors.Ensemble.score_windows`
    in one call, in batch order: each member scores them together, and a
    live model member reads the event ids stamped at admission (one
    forward per system, no second parse).  A mixed batch therefore costs
    one call per system, so shards do not fuse lanes for this worker.  The ensemble keeps rolling
    per-system state (EWMA baselines, LOF reference buffers), so windows
    of one system must reach it in stream order — submit-order admission
    into system-sticky shards, and lanes that keep arrival order, already
    guarantee that for every shard count.

    Ungated: rate- and novelty-based members (EWMA, LOF) derive their
    verdicts from per-system rolling state, so a memoized first verdict
    for a window pattern would both starve their baselines and serve
    stale answers.  An ungated shard emits only anomalous reports and
    remembers no verdict, so windows at or below the threshold get a
    score-only report: no messages, interpretations or timestamps.

    With a live model member, records are admitted through that
    pipeline's per-system parse, so the member scores the stamped ids
    and the LOF member embeds the masked text the parse produced;
    otherwise through :func:`message_event`.
    """

    gated = False

    def __init__(self, ensemble):
        self.ensemble = ensemble
        pipeline = ensemble.pipeline
        self.event_fn = (message_event if pipeline is None
                         else pipeline.event_id_of)

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        positions_of: dict[str, list[int]] = {}
        for position, pending in enumerate(batch):
            positions_of.setdefault(pending.system, []).append(position)
        scores = [0.0] * len(batch)
        for system, positions in positions_of.items():
            column = self.ensemble.score_windows(
                system, [batch[position].window for position in positions])
            for position, score in zip(positions, column):
                scores[position] = score
        threshold = float(self.ensemble.threshold)
        reports = []
        for pending, score in zip(batch, scores):
            # Windows at or below the threshold are never emitted, so
            # their reports carry the verdict alone.
            window = pending.window if float(score) > threshold else ()
            reports.append(build_report(
                system=pending.system,
                score=score,
                threshold=threshold,
                messages=[entry.message for entry in window],
                interpretations=[entry.message for entry in window],
                timestamps=[entry.timestamp for entry in window],
            ))
        return reports


class SyntheticWorker:
    """Deterministic scorer with a simulated per-batch inference cost.

    ``cost`` is a plain tuple paid once per batch, or ``None`` for free
    scoring in unit tests:

    * ``("sleep", seconds)`` — I/O-shaped latency (remote inference).
    * ``("spin", iterations)`` — CPU-shaped work (a pure-Python LCG
      loop); holds the GIL.

    A tuple pickles unchanged into shard processes, so both executors
    pay the same cost.  Scores are a pure function of window content,
    so results are reproducible and shard-count independent.
    """

    fuse_lanes = True
    event_fn = staticmethod(message_event)

    def __init__(self, threshold: float = 0.5, cost: tuple | None = None):
        if cost is not None and cost[0] not in ("sleep", "spin"):
            raise ValueError(
                f"unknown cost spec kind {cost[0]!r}; expected sleep|spin")
        self.threshold = threshold
        self.cost = cost

    def _pay_cost(self) -> None:
        kind, amount = self.cost
        if kind == "sleep":
            time.sleep(float(amount))
            return
        value = 1
        for _ in range(int(amount)):
            value = (value * 1103515245 + 12345) % 2147483648

    def _score(self, window: list) -> float:
        digest = zlib.crc32(
            "\n".join(entry.message for entry in window).encode("utf-8")
        )
        return (digest % 1000) / 999.0

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        if self.cost is not None:
            self._pay_cost()
        reports = []
        for pending in batch:
            reports.append(build_report(
                system=pending.system,
                score=self._score(pending.window),
                threshold=self.threshold,
                messages=[entry.message for entry in pending.window],
                interpretations=[entry.message for entry in pending.window],
                timestamps=[entry.timestamp for entry in pending.window],
            ))
        return reports


class FlakyWorker:
    """Fault injection wrapper: fail the next N calls, then delegate.
    Records are admitted through the inner worker's hook."""

    def __init__(self, inner: InferenceWorker, failures: int = 0):
        self.inner = inner
        self.event_fn = getattr(inner, "event_fn", message_event)
        self.failures_remaining = failures
        self.calls = 0

    def fail_next(self, count: int) -> None:
        """Arm ``count`` consecutive injected failures."""
        self.failures_remaining = count

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        self.calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise WorkerError("injected worker fault")
        return self.inner.score_batch(batch)
