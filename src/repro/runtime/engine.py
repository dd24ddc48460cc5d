"""The inference runtime engine: router + shards + supervision.

:class:`InferenceRuntime` runs under one of two executors:

**Synchronous** (``executor="sync"``, the default) — ``submit`` /
``drain`` on the caller's thread.  ``submit`` ingests the record into
its shard and scores whatever batches are then due; nothing is queued
in between, so records reach their shards in exactly the order the
caller submitted them.  That ordering — together with the scheduler's
exact-``max_batch`` lane chunking, per-system pattern libraries and a
canonical end-of-stream drain order — makes the output a pure function
of the input stream: ``repro replay --shards N`` is byte-identical for
every N.  This mode backs :class:`~repro.deploy.online.OnlineService`,
``repro replay`` and ``repro serve``, where the ``max_latency`` trigger
flushes every lane of a shard on the last submit to it whose flush still
lands by the shard's oldest deadline: each shard measures the gap
between the submits routed to it and what a latency flush costs.

**Process** (``executor="process"``) — ``start`` / ``stop``; each shard
runs in its own worker process (:mod:`repro.runtime.procexec`), which
loads a pickled snapshot of the runtime's worker.  It overlaps scoring
across cores past the GIL and keeps the deterministic-output contract:
replay output is byte-identical to sync mode (see the procexec module
docstring for the argument).

Both executors are built from one worker.  A worker says how its
records are admitted, whether it is gated, whether it fuses lanes, and
which pipeline a swap loads (see :mod:`repro.runtime.worker`); sync
shards share it, each behind its own supervisor, and each shard process
loads its own copy.

Admission never sheds under either executor: ``block`` is the only
``backpressure`` policy.  A caller that wants to shed load does so
before ``submit`` (:class:`~repro.deploy.online.OnlineService` caps each
``process`` call at its ``buffer_capacity``).
"""

from __future__ import annotations

from typing import Callable

from ..core.report import AnomalyReport
from ..obs import MetricsRegistry, get_registry
from ..testing.faultpoints import DROPPED, fault_point
from .router import ShardRouter
from .shard import ShardState
from .supervisor import WorkerSupervisor
from .worker import EnsembleWorker, InferenceWorker, ModelWorker

__all__ = ["InferenceRuntime", "RuntimeStats"]


class RuntimeStats:
    """Read-view over an engine's registry counters.

    Sums the flat name and any ``.shard<i>``-scoped variants, so one
    accessor also counts the per-shard metrics that worker processes
    (and their parent-side fallbacks) report.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "runtime"):
        self.registry = registry
        self.prefix = prefix

    def _sum(self, stem: str) -> float:
        flat = f"{self.prefix}.{stem}"
        scoped = f"{flat}.shard"
        total = 0.0
        for name, metric in self.registry.metrics().items():
            if name == flat or name.startswith(scoped):
                total += metric.value
        return total

    @property
    def windows_seen(self) -> int:
        return int(self._sum("windows_seen"))

    @property
    def model_invocations(self) -> int:
        return int(self._sum("model_invocations"))

    @property
    def library_hits(self) -> int:
        return int(self._sum("library_hits"))

    @property
    def anomalies_raised(self) -> int:
        return int(self._sum("anomalies_raised"))

    @property
    def degraded_windows(self) -> int:
        return int(self._sum("degraded_windows"))

    @property
    def batches(self) -> int:
        return int(self._sum("batches"))

    @property
    def records_rejected(self) -> int:
        """Records an :class:`~repro.deploy.online.OnlineService` shed
        past its ``buffer_capacity`` (the runtime itself never sheds)."""
        return int(self._sum("records_rejected"))

    @property
    def records_dropped(self) -> int:
        """Always 0: nothing evicts admitted records.  Kept for readers
        that sum it with :attr:`records_rejected`."""
        return int(self._sum("records_dropped"))

    @property
    def worker_failures(self) -> int:
        return int(self._sum("worker_failures"))

    @property
    def unhealthy_transitions(self) -> int:
        return int(self._sum("unhealthy_transitions"))

    @property
    def worker_recoveries(self) -> int:
        return int(self._sum("worker_recoveries"))

    @property
    def model_skip_rate(self) -> float:
        """Fraction of windows answered without a model invocation."""
        seen = self.windows_seen
        if seen == 0:
            return 0.0
        return 1.0 - self.model_invocations / seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RuntimeStats(windows_seen={self.windows_seen}, "
                f"model_invocations={self.model_invocations}, "
                f"degraded_windows={self.degraded_windows})")


class InferenceRuntime:
    """Sharded micro-batching front-end over one inference worker."""

    def __init__(self, worker: InferenceWorker, *,
                 shards: int = 1, window: int = 10, step: int = 5,
                 max_batch: int = 16, max_latency: float | None = None,
                 backpressure: str = "block",
                 executor: str = "sync",
                 supervisor_options: dict | None = None,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "runtime",
                 on_report: Callable[[AnomalyReport], None] | None = None):
        if executor not in ("sync", "process"):
            raise ValueError(f"unknown executor {executor!r}; "
                             "expected sync|process")
        if backpressure != "block":
            raise ValueError(
                f"unsupported backpressure policy {backpressure!r}: "
                "admission never sheds, so 'block' is the only one")
        if worker is None:
            raise ValueError("InferenceRuntime requires a worker")
        # Flush spans go where someone can read them: a registry the
        # caller passed, or the active one.
        spans = True
        if registry is None:
            active = get_registry()
            # Stats must stay readable with observability off, so fall
            # back to a private registry rather than the no-op one.  No
            # one reads its spans, so its shards open none.
            spans = active.enabled
            registry = active if spans else MetricsRegistry()
        self.router = ShardRouter(shards)
        self.executor = executor
        self.registry = registry
        self.prefix = prefix
        self.stats = RuntimeStats(registry, prefix)
        self._clock = registry.clock
        self._on_report = on_report
        self._reports: list[AnomalyReport] = []
        self._worker = worker
        # Always empty: no executor runs shard code on a thread of its
        # own.  Kept because benchmark harnesses count its entries.
        self.shard_errors: list[BaseException] = []
        self.shards: list[ShardState] = []
        self._process = None
        if executor == "process":
            # Submodule import keeps multiprocessing machinery out of the
            # sync path entirely.
            from .procexec import ProcessShardExecutor

            self._process = ProcessShardExecutor(
                worker, shards=shards, emit=self._emit,
                window=window, step=step, max_batch=max_batch,
                max_latency=max_latency,
                supervisor_options=supervisor_options,
                registry=registry, prefix=prefix,
            )
            return
        for index in range(shards):
            supervisor = WorkerSupervisor(
                worker, registry=registry,
                prefix=prefix, **(supervisor_options or {}),
            )
            self.shards.append(ShardState(
                index, supervisor, emit=self._emit, registry=registry,
                window=window, step=step,
                max_batch=max_batch, max_latency=max_latency,
                prefix=prefix, spans=spans,
            ))

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, **kwargs) -> "InferenceRuntime":
        """Build a runtime over a fitted LogSynergy model: its
        :class:`ModelWorker` admits each record through its own system's
        featurizer, the gate keys on the window's event-id set, and the
        worker scores the carried ids.  Under ``executor="process"`` each
        shard process parses with its own copy of the pipeline.
        """
        return cls(ModelWorker(model), **kwargs)

    @classmethod
    def from_ensemble(cls, ensemble, **kwargs) -> "InferenceRuntime":
        """Build a runtime over a :class:`repro.detectors.Ensemble`.

        Its :class:`~repro.runtime.worker.EnsembleWorker` is ungated, so
        every window reaches the ensemble, one micro-batch per
        :meth:`~repro.detectors.Ensemble.score_windows` call, and it
        admits through a live model member's pipeline when there is one.
        One ensemble instance is shared by all sync shards, and each
        shard process loads its own copy — per-system state plus
        system-sticky routing keeps replay byte-identical across shard
        counts and executors.
        """
        return cls(EnsembleWorker(ensemble), **kwargs)

    @property
    def serving(self):
        """The pipeline weight swaps load into: a :class:`ModelWorker`'s
        model, else ``None``."""
        if isinstance(self._worker, ModelWorker):
            return self._worker.model
        return None

    # ------------------------------------------------------------------
    def swap_weights(self, state: dict) -> None:
        """Promote candidate model weights into the serving path live.

        ``state`` is a :meth:`~repro.nn.module.Module.state_dict` for
        the served :class:`~repro.core.model.LogSynergyModel`.  It loads
        into the served pipeline's model first, under both executors,
        between two calls, so no scoring pass sees half-new parameters
        and a state that does not fit raises before any shard process
        sees it.  Process mode then swaps every shard process.
        """
        serving = self.serving
        if serving is None:
            raise RuntimeError(
                "swap_weights requires a runtime built with from_model")
        serving.model.load_state_dict(state)
        if self._process is not None:
            self._process.swap_weights(state)
        self.registry.counter(f"{self.prefix}.weight_swaps").inc()

    # ------------------------------------------------------------------
    def _emit(self, report: AnomalyReport) -> None:
        self._reports.append(report)
        if self._on_report is not None:
            self._on_report(report)

    def take_reports(self) -> list[AnomalyReport]:
        """Pop every report emitted since the last call."""
        reports = self._reports
        self._reports = []
        return reports

    def queue_depths(self) -> list[int]:
        """Records admitted but not yet handed to their shard: the
        process executor's unshipped buffers; always 0 under sync."""
        if self._process is not None:
            return self._process.queue_depths()
        return [0] * len(self.shards)

    def pending_windows(self) -> int:
        """Windows awaiting a batch flush, summed over the shards."""
        if self._process is not None:
            raise RuntimeError("pending_windows() cannot see into worker "
                               "processes; drain() flushes them instead")
        return sum(shard.pending_windows() for shard in self.shards)

    def _sorted_reports(self) -> list[AnomalyReport]:
        """Every report emitted so far, in canonical replay order."""
        from .replay import report_sort_key

        reports = self.take_reports()
        reports.sort(key=report_sort_key)
        return reports

    # ------------------------------------------------------------------
    def submit(self, record) -> None:
        """Admit one record to its shard.

        Sync ingests it there and scores whatever batches are then due
        (full lanes, and every lane once the next submit to the shard
        would come too late for its oldest window's flush to land
        within ``max_latency``); process hands it to the shard's worker
        process.
        """
        if fault_point("runtime.admit", record) is DROPPED:
            # Injected silent ingress loss: the caller sees a normal
            # return but the record never lands (what the invariants
            # must catch).
            return
        index = self.router.shard_of(record.system)
        if self._process is not None:
            # The process executor journals every record (its crash
            # recovery refeeds it); a lagging child blocks the caller at
            # the bounded IPC flush, so nothing is shed here either.
            self._process.submit(index, record)
            return
        shard = self.shards[index]
        shard.ingest(record)
        shard.flush_ready(self._clock())

    def pump(self) -> None:
        """A no-op under sync, kept for callers that pump after every
        submit: ``submit`` already scores each record's due batches."""
        if self._process is not None:
            raise RuntimeError("pump() is for the sync executor; process "
                               "runtimes consume via start()/stop() or "
                               "drain()")

    def drain(self) -> list[AnomalyReport]:
        """Flush every residual batch and return the reports emitted
        since the last ``take_reports``.

        Residual (partial) batches flush in one canonical order — lanes
        sorted by system name across all shards — so end-of-stream
        output is shard-count independent too.
        """
        if self._process is not None:
            # Full cross-process barrier; reports come back in canonical
            # replay order so callers see a deterministic sequence.
            self._process.drain()
            return self._sorted_reports()
        residual: list[tuple[str, int, list]] = []
        for shard in self.shards:
            for system, batch in shard.drain_batches():
                residual.append((system, shard.index, batch))
        residual.sort(key=lambda entry: entry[0])
        for _system, index, batch in residual:
            self.shards[index].score_batch(batch)
        return self.take_reports()

    # -- process mode ----------------------------------------------------
    def start(self) -> None:
        """Spawn the shard worker processes (process executor only)."""
        if self._process is None:
            raise RuntimeError("start() requires executor='process'; sync "
                               "runtimes score on submit() and drain()")
        self._process.ensure_started()

    def stop(self) -> list[AnomalyReport]:
        """Finish the stream and return its reports.

        Process mode drains and reaps the shard processes; sync mode
        scores everything pending, exactly like :meth:`drain`.
        """
        if self._process is None:
            return self.drain()
        self._process.stop()
        return self._sorted_reports()
