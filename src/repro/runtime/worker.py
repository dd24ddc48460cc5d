"""Inference workers: the units a shard's supervisor drives.

A worker turns one micro-batch of :class:`~repro.runtime.scheduler.PendingWindow`
into one :class:`~repro.core.report.AnomalyReport` per window, in order.
Three implementations:

* :class:`ModelWorker` — the production path over a fitted
  :class:`~repro.core.pipeline.LogSynergy`: the event ids parsed at
  admission go straight to ``score_event_windows`` (gather + one
  forward per window-length group), with no second parse.
* :class:`SyntheticWorker` — deterministic content-hash scoring with an
  injectable per-batch cost, for tests and the runtime benchmark (the
  cost stands in for LLM/accelerator inference latency, which LogLLM and
  LogGPT identify as the production bottleneck).
* :class:`FlakyWorker` — fault injection: raises
  :class:`WorkerError` for a scripted number of calls, then delegates.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, Protocol

from ..core.report import AnomalyReport, build_report
from ..testing.faultpoints import DROPPED, fault_point
from .scheduler import PendingWindow

__all__ = [
    "WorkerError", "InferenceWorker", "ModelWorker", "SyntheticWorker",
    "EnsembleWorker", "FlakyWorker", "message_event",
    "admission_event_fn", "resolve_cost", "build_worker_from_spec",
]


class WorkerError(RuntimeError):
    """A worker failed to score a batch (retryable by the supervisor)."""


class InferenceWorker(Protocol):
    """One report per pending window, in batch order."""

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        ...  # pragma: no cover - protocol


def message_event(system: str, message: str) -> int:
    """Featurizer-free event id: the message's CRC32 bucket.

    Stands in for the model's per-system Drain parse in runtimes driven
    by a :class:`SyntheticWorker` or a detector ensemble without a live
    model member.
    """
    return zlib.crc32(message.encode("utf-8")) % 4096


def admission_event_fn(pipeline) -> Callable[[str, str], int]:
    """The runtime's per-record admission hook.

    With a fitted pipeline it is the pipeline's per-system parse
    (:meth:`~repro.core.pipeline.LogSynergy.event_id_of`), so the model
    scores the ids stamped here; without one it is :func:`message_event`.
    """
    if pipeline is None:
        return message_event
    return pipeline.event_id_of


class ModelWorker:
    """Scores batches through LogSynergy's batch-first detection path."""

    def __init__(self, model):
        if model.model is None:
            raise ValueError("ModelWorker requires a fitted LogSynergy model")
        self.model = model

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        fault_point("runtime.worker.score")
        # A batch is one system lane's chunk (MicroBatchScheduler).
        system = batch[0].system
        grid = [[entry.event_id for entry in p.window] for p in batch]
        messages = [[entry.message for entry in p.window] for p in batch]
        timestamps = [[entry.timestamp for entry in p.window] for p in batch]
        reports = self.model.score_event_windows(
            system, grid, messages, timestamps)
        reports = fault_point("runtime.worker.result", reports)
        # A dropped result degrades the batch (the supervisor treats a
        # missing result like an exhausted retry budget).
        return None if reports is DROPPED else reports

    def load_weights(self, state: dict) -> None:
        """Hot-swap the served model's weights (the promotion path)."""
        self.model.model.load_state_dict(state)


class EnsembleWorker:
    """Scores batches through a :class:`repro.detectors.Ensemble`.

    A batch is one system lane's chunk, handed to
    :meth:`~repro.detectors.Ensemble.score_windows` whole: each member
    scores it in one call, and a live model member reads the event ids
    stamped at admission (one forward per batch, no second parse).  The
    ensemble keeps rolling per-system state (EWMA baselines, LOF
    reference buffers), so windows of one system must reach it in
    stream order — the engine's deterministic pump already guarantees
    that for every shard count.
    """

    def __init__(self, ensemble):
        self.ensemble = ensemble

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        fault_point("runtime.worker.score")
        system = batch[0].system
        scores = self.ensemble.score_windows(
            system, [pending.window for pending in batch])
        reports = [
            build_report(
                system=system,
                score=score,
                threshold=self.ensemble.threshold,
                messages=[entry.message for entry in pending.window],
                interpretations=[entry.message for entry in pending.window],
                timestamps=[entry.timestamp for entry in pending.window],
            )
            for pending, score in zip(batch, scores)
        ]
        reports = fault_point("runtime.worker.result", reports)
        return None if reports is DROPPED else reports


class SyntheticWorker:
    """Deterministic scorer with a simulated per-batch inference cost.

    ``cost`` is called once per batch with the batch size; inject
    ``lambda n: time.sleep(...)`` to model fixed inference latency, or
    leave ``None`` for free scoring in unit tests.  Scores are a pure
    function of window content, so results are reproducible and
    shard-count independent.
    """

    def __init__(self, threshold: float = 0.5,
                 cost: Callable[[int], None] | None = None):
        self.threshold = threshold
        self.cost = cost
        self.batches_scored = 0

    def _score(self, window: list) -> float:
        digest = zlib.crc32(
            "\n".join(entry.message for entry in window).encode("utf-8")
        )
        return (digest % 1000) / 999.0

    def score_batch(self, batch: list[PendingWindow]) -> list[AnomalyReport]:
        fault_point("runtime.worker.score")
        if self.cost is not None:
            self.cost(len(batch))
        self.batches_scored += 1
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
        reports = fault_point("runtime.worker.result", reports)
        return None if reports is DROPPED else reports


def resolve_cost(spec: tuple | None) -> Callable[[int], None] | None:
    """Turn a declarative per-batch cost spec into a callable.

    Cost specs are plain tuples so they survive pickling into worker
    processes unchanged — both executors then pay the *same* simulated
    inference cost, which keeps executor benchmarks honest:

    * ``("sleep", seconds)`` — I/O-shaped latency (remote inference).
    * ``("spin", iterations)`` — CPU-shaped work (a pure-Python LCG
      loop); holds the GIL.
    """
    if spec is None:
        return None
    kind, amount = spec
    if kind == "sleep":
        seconds = float(amount)
        return lambda _n: time.sleep(seconds)
    if kind == "spin":
        iterations = int(amount)

        def spin(_n: int) -> None:
            value = 1
            for _ in range(iterations):
                value = (value * 1103515245 + 12345) % 2147483648

        return spin
    raise ValueError(f"unknown cost spec kind {kind!r}; expected sleep|spin")


def build_worker_from_spec(cfg: dict):
    """Construct ``(worker, event_fn, gate)`` inside a worker process.

    ``cfg`` is the picklable dict a
    :class:`~repro.runtime.procexec.ProcessWorkerSpec` ships to each
    shard process; model and ensemble kinds rehydrate their warm state
    from the shared-memory broadcast handle; each process owns its
    model replica outright.
    """
    kind = cfg["kind"]
    if kind == "synthetic":
        worker = SyntheticWorker(threshold=cfg.get("threshold", 0.5),
                                 cost=resolve_cost(cfg.get("cost")))
        return worker, message_event, cfg.get("gate", True)

    from .broadcast import attach, restore_pipeline

    llm = None
    if cfg.get("llm_spec"):
        from ..llm.factory import provider_from_spec

        llm = provider_from_spec(cfg["llm_spec"], seed=cfg.get("seed", 0))
    pipeline = None
    if cfg.get("handle") is not None:
        attached = attach(cfg["handle"])
        pipeline = restore_pipeline(attached, llm=llm)
    if kind == "model":
        if pipeline is None:
            raise ValueError("model worker spec requires a broadcast handle")
        return ModelWorker(pipeline), admission_event_fn(pipeline), cfg.get("gate", True)
    if kind == "ensemble":
        from ..detectors import ensemble_from_spec

        ensemble = ensemble_from_spec(cfg["detectors"], pipeline=pipeline,
                                      seed=cfg.get("seed", 0))
        return (EnsembleWorker(ensemble), admission_event_fn(ensemble.pipeline),
                False)
    raise ValueError(
        f"unknown worker spec kind {kind!r}; expected synthetic|model|ensemble")


class FlakyWorker:
    """Fault injection wrapper: fail the next N calls, then delegate."""

    def __init__(self, inner: InferenceWorker, failures: int = 0):
        self.inner = inner
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
