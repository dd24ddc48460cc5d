"""The inference runtime engine: router + queues + shards + supervision.

:class:`InferenceRuntime` runs in one of two modes:

**Synchronous** (default) — ``submit`` / ``pump`` / ``drain`` on the
caller's thread.  Records are admitted to their shard's bounded queue and
``pump`` consumes them in *global submission order* (a k-way merge on the
sequence number across shard queues).  That ordering — together with the
scheduler's exact-``max_batch`` lane chunking, per-system pattern
libraries and a canonical end-of-stream drain order — makes the output a
pure function of the input stream: ``repro replay --shards N`` is
byte-identical for every N.  This mode backs
:class:`~repro.deploy.online.OnlineService` and ``repro replay``.

**Threaded** (``executor="thread"``) — ``start`` /
``stop``; one worker thread per shard consumes its own queue, so
simulated/remote inference latency overlaps across shards
(``repro serve``).  Determinism is traded for throughput: global
ordering is not enforced and per-shard metric names get a ``.shard<i>``
scope suffix so concurrent shards never race on one counter object.
These shard threads are the only ``threading.Thread`` constructions the
project permits (the ``direct-thread`` lint rule enforces this).

**Process** (``executor="process"``) — each shard runs in its own
worker process (:mod:`repro.runtime.procexec`), warmed through a
one-time shared-memory weight broadcast.  Unlike threads this overlaps
*CPU-bound* scoring past the GIL, and unlike the threaded mode it keeps
the deterministic-output contract: replay output is byte-identical to
sync mode (see the procexec module docstring for the argument).  Live
workers are constructed from a picklable :class:`ProcessWorkerSpec`
rather than ``worker_factory``.

Backpressure is explicit: the queue's ``block`` policy never sheds (the
synchronous engine pumps inline to make room; threaded producers wait),
while ``reject`` / ``drop-oldest`` shed and count through
``<prefix>.records_rejected`` / ``<prefix>.records_dropped``.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..core.report import AnomalyReport
from ..obs import MetricsRegistry, get_registry
from .queues import OFFER_DROPPED, OFFER_FULL, OFFER_OK, OFFER_REJECTED, ShardQueue
from .router import ShardRouter
from .shard import ShardState
from .supervisor import WorkerSupervisor
from .worker import EnsembleWorker, InferenceWorker, ModelWorker, admission_event_fn

__all__ = ["InferenceRuntime", "RuntimeStats"]


class RuntimeStats:
    """Read-view over an engine's registry counters.

    Sums the flat name and any ``.shard<i>``-scoped variants, so one
    accessor works for both synchronous and threaded engines.
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
        return int(self._sum("records_rejected"))

    @property
    def records_dropped(self) -> int:
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
    """Sharded micro-batching front-end over inference workers."""

    def __init__(self,
                 worker_factory: Callable[[int], InferenceWorker] | None, *,
                 event_fn: Callable[[str, str], int],
                 shards: int = 1, window: int = 10, step: int = 5,
                 max_batch: int = 16, max_latency: float | None = None,
                 queue_capacity: int = 10_000, backpressure: str = "block",
                 poll_interval: float = 0.05,
                 executor: str = "sync", process_spec=None,
                 respawn_policy=None,
                 supervisor_options: dict | None = None,
                 fallback_threshold: float = 0.5,
                 max_patterns: int = 100_000,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "runtime",
                 on_report: Callable[[AnomalyReport], None] | None = None,
                 gate: bool = True):
        if executor not in ("sync", "thread", "process"):
            raise ValueError(f"unknown executor {executor!r}; "
                             "expected sync|thread|process")
        threaded = executor == "thread"
        if executor == "process":
            if process_spec is None:
                raise ValueError(
                    "executor='process' requires a process_spec "
                    "(see ProcessWorkerSpec / from_model)")
            if backpressure != "block":
                raise ValueError(
                    "the process executor supports only the 'block' "
                    f"backpressure policy, got {backpressure!r}")
        elif worker_factory is None:
            raise ValueError(f"executor={executor!r} requires worker_factory")
        if registry is None:
            active = get_registry()
            # Stats must stay readable with observability off, so fall
            # back to a private registry rather than the no-op one.
            registry = active if active.enabled else MetricsRegistry()
        self.router = ShardRouter(shards)
        self.threaded = threaded
        self.executor = executor
        self.registry = registry
        self.prefix = prefix
        self.poll_interval = poll_interval
        self.stats = RuntimeStats(registry, prefix)
        self._clock = registry.clock
        self._on_report = on_report
        self._reports: list[AnomalyReport] = []
        self._report_lock = threading.Lock()
        self._seq = 0
        self._started = False
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        # (pipeline, lock) for in-process weight swaps; wired by
        # from_model for the sync/threaded paths (process mode swaps
        # through the executor's re-broadcast instead).
        self._serving: tuple | None = None
        self.shard_errors: list[BaseException] = []
        options = dict(supervisor_options or {})
        options.setdefault("clock", registry.clock)
        self.queues: list[ShardQueue] = []
        self.shards: list[ShardState] = []
        self._depth_gauges = []
        self._process = None
        if executor == "process":
            # Submodule import keeps multiprocessing machinery out of the
            # sync/threaded paths entirely.
            from .procexec import ProcessShardExecutor

            self._process = ProcessShardExecutor(
                process_spec, shards=shards,
                event_fn=event_fn, emit=self._emit,
                window=window, step=step, max_batch=max_batch,
                max_latency=max_latency,
                supervisor_options=supervisor_options,
                fallback_threshold=fallback_threshold,
                max_patterns=max_patterns,
                registry=registry, prefix=prefix,
                poll_interval=poll_interval,
                respawn_policy=respawn_policy,
            )
            self._rejected = registry.counter(f"{prefix}.records_rejected")
            self._dropped = registry.counter(f"{prefix}.records_dropped")
            return
        for index in range(shards):
            scope = f".shard{index}" if threaded else ""
            supervisor = WorkerSupervisor(
                worker_factory(index), registry=registry,
                prefix=prefix, scope=scope, **options,
            )
            self.queues.append(ShardQueue(queue_capacity, policy=backpressure))
            self.shards.append(ShardState(
                index, supervisor,
                event_fn=event_fn, emit=self._emit,
                registry=registry, clock=registry.clock,
                window=window, step=step,
                max_batch=max_batch, max_latency=max_latency,
                fallback_threshold=fallback_threshold,
                max_patterns=max_patterns,
                # Tracer spans are stack-based and not thread-safe: on
                # only for the synchronous engine.
                prefix=prefix, scope=scope, spans=not threaded, gate=gate,
            ))
            self._depth_gauges.append(
                registry.gauge(f"{prefix}.queue_depth.shard{index}")
            )
        self._rejected = registry.counter(f"{prefix}.records_rejected")
        self._dropped = registry.counter(f"{prefix}.records_dropped")

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, **kwargs) -> "InferenceRuntime":
        """Build a runtime over a fitted LogSynergy model.

        Each record is parsed once, at admission, by its own system's
        featurizer (:meth:`~repro.core.pipeline.LogSynergy.event_id_of`);
        the gate keys on the window's event-id set and a
        :class:`ModelWorker` per shard scores the carried ids.  In
        threaded mode one lock is shared by that admission parse and
        every worker, because the featurizers share the LEI and encoder
        caches, which are not thread-safe.

        With ``executor="process"`` the pipeline is packed into a
        shared-memory weight broadcast and every shard process rebuilds
        its own warm replica and parses there — no lock, no sharing; the
        parent's hook only serves a shard degraded to the parent-side
        fallback.  Pass ``llm_spec`` (a provider spec string) to give
        replicas a live interpreter.
        """
        if model.model is None:
            raise ValueError("InferenceRuntime requires a fitted LogSynergy model")
        if kwargs.get("executor") == "process":
            from .procexec import ProcessWorkerSpec

            kwargs.setdefault("process_spec", ProcessWorkerSpec.for_pipeline(
                model, llm_spec=kwargs.pop("llm_spec", None)))
            return cls(None, event_fn=admission_event_fn(model), **kwargs)
        lock = threading.Lock() if kwargs.get("executor") == "thread" else None
        runtime = cls(lambda index: ModelWorker(model, lock=lock),
                      event_fn=admission_event_fn(model, lock), **kwargs)
        runtime._serving = (model, lock)
        return runtime

    @classmethod
    def from_ensemble(cls, ensemble, **kwargs) -> "InferenceRuntime":
        """Build a runtime over a :class:`repro.detectors.Ensemble`.

        The pattern gate is forced off: rate- and novelty-based members
        (EWMA, LOF) derive their verdicts from per-system rolling state,
        so memoizing a window pattern's first verdict would both starve
        the baselines and serve stale answers.  Every window reaches the
        ensemble, one micro-batch per
        :meth:`~repro.detectors.Ensemble.score_windows` call; it runs its
        own memoization where sound (the rule member's per-line pattern
        library).  When the ensemble has a live model member, records
        are admitted through that pipeline's per-system parse, as in
        :meth:`from_model`, and the member scores the stamped ids with
        one forward per batch; otherwise admission uses
        :func:`~repro.runtime.worker.message_event` (see
        :func:`~repro.runtime.worker.admission_event_fn`).  One ensemble
        instance is shared by all shards — per-system state plus
        system-sticky routing keeps replay byte-identical across shard
        counts, and in threaded mode one shared lock serializes the
        workers and the admission parse.
        """
        if kwargs.get("executor") == "process":
            # A live ensemble cannot be shipped to worker processes;
            # the spec-string path rebuilds one per child instead.
            raise ValueError(
                "from_ensemble cannot run under executor='process'; build "
                "the runtime with process_spec=ProcessWorkerSpec.ensemble("
                "detectors_spec, ...) so each worker process rebuilds its "
                "own ensemble")
        kwargs["gate"] = False
        lock = threading.Lock() if kwargs.get("executor") == "thread" else None
        return cls(lambda index: EnsembleWorker(ensemble, lock=lock),
                   event_fn=admission_event_fn(ensemble.pipeline, lock),
                   **kwargs)

    # ------------------------------------------------------------------
    def swap_weights(self, state: dict) -> None:
        """Promote candidate model weights into the serving path live.

        ``state`` is a :meth:`~repro.nn.module.Module.state_dict` for
        the served :class:`~repro.core.model.LogSynergyModel`.  Process
        mode rebuilds the shared-memory broadcast and swaps every shard
        process; the in-process modes load the state into the served
        pipeline's model — under the shared worker lock when threaded,
        so a swap never interleaves with a scoring pass.
        """
        if self._process is not None:
            self._process.swap_weights(state)
        elif self._serving is not None:
            pipeline, lock = self._serving
            if lock is None:
                pipeline.model.load_state_dict(state)
            else:
                with lock:
                    pipeline.model.load_state_dict(state)
        else:
            raise RuntimeError(
                "swap_weights requires a runtime built with from_model "
                "(or a process-executor model spec)")
        self.registry.counter(f"{self.prefix}.weight_swaps").inc()

    # ------------------------------------------------------------------
    def _emit(self, report: AnomalyReport) -> None:
        with self._report_lock:
            self._reports.append(report)
        if self._on_report is not None:
            self._on_report(report)

    def take_reports(self) -> list[AnomalyReport]:
        """Pop every report emitted since the last call."""
        with self._report_lock:
            reports = self._reports
            self._reports = []
        return reports

    def queue_depths(self) -> list[int]:
        if self._process is not None:
            return self._process.queue_depths()
        return [len(queue) for queue in self.queues]

    def pending_windows(self) -> int:
        """Windows awaiting a batch flush, summed over the shards."""
        if self._process is not None:
            raise RuntimeError("pending_windows() cannot see into worker "
                               "processes; drain() flushes them instead")
        return sum(shard.pending_windows() for shard in self.shards)

    # -- synchronous mode ----------------------------------------------
    def submit(self, record) -> str:
        """Route one record to its shard queue; returns the admission
        outcome (one of the ``OFFER_*`` constants)."""
        index = self.router.shard_of(record.system)
        if self._process is not None:
            # The process executor journals every record (its crash
            # recovery refeeds it), so admission never sheds: block is
            # the only supported policy and blocking happens at the
            # bounded IPC flush, not here.
            self._process.submit(index, record)
            return OFFER_OK
        queue = self.queues[index]
        self._seq += 1
        item = (self._seq, record)
        if self.threaded:
            outcome = queue.offer(item) if queue.policy == "block" \
                else queue.try_offer(item)
        else:
            outcome = queue.try_offer(item)
            if outcome == OFFER_FULL:
                # block policy, queue full: the producer *is* the
                # consumer here, so make room by pumping inline.
                self.pump()
                outcome = queue.try_offer(item)
        if outcome == OFFER_REJECTED:
            self._rejected.inc()
        elif outcome == OFFER_DROPPED:
            self._dropped.inc()
        self._depth_gauges[index].set(len(queue))
        return outcome

    def pump(self) -> None:
        """Consume every queued record in global submission order.

        The k-way merge on sequence numbers reproduces exactly the order
        ``submit`` saw, whatever the shard count — the keystone of
        deterministic replay.  Full batches flush inline as lanes fill.
        """
        if self.threaded or self._process is not None:
            raise RuntimeError("pump() is for synchronous mode; "
                               "threaded/process runtimes consume via "
                               "start()/stop() or drain()")
        while True:
            best_index = -1
            best_seq = None
            for index, queue in enumerate(self.queues):
                head = queue.peek()
                if head is not None and (best_seq is None or head[0] < best_seq):
                    best_seq = head[0]
                    best_index = index
            if best_index < 0:
                return
            (_seq, record), = self.queues[best_index].poll(1)
            shard = self.shards[best_index]
            shard.ingest(record)
            shard.flush_ready(self._clock())
            self._depth_gauges[best_index].set(len(self.queues[best_index]))

    def drain(self) -> list[AnomalyReport]:
        """Pump what is queued, flush every residual batch, and return
        the reports emitted since the last ``take_reports``.

        Residual (partial) batches flush in one canonical order — lanes
        sorted by system name across all shards — so end-of-stream
        output is shard-count independent too.
        """
        if self._process is not None:
            # Full cross-process barrier; reports come back in canonical
            # replay order so callers see a deterministic sequence.
            from .replay import report_sort_key

            self._process.drain()
            reports = self.take_reports()
            reports.sort(key=report_sort_key)
            return reports
        self.pump()
        residual: list[tuple[str, int, list]] = []
        for shard in self.shards:
            for system, batch in shard.drain_batches():
                residual.append((system, shard.index, batch))
        residual.sort(key=lambda entry: entry[0])
        for _system, index, batch in residual:
            self.shards[index].score_batch(batch)
        return self.take_reports()

    # -- threaded / process mode ---------------------------------------
    def start(self) -> None:
        """Spawn the shard consumers (threaded or process mode)."""
        if self._process is not None:
            self._process.ensure_started()
            self._started = True
            return
        if not self.threaded:
            raise RuntimeError("start() requires executor='thread' "
                               "or 'process'")
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        self._stop.clear()
        # The one sanctioned construction site for threads in this
        # project — everything else must go through this runtime.
        self._threads = [
            threading.Thread(target=self._shard_loop, args=(index,),
                             name=f"repro-shard-{index}", daemon=True)
            for index in range(len(self.shards))
        ]
        for thread in self._threads:
            thread.start()

    def _shard_loop(self, index: int) -> None:
        queue = self.queues[index]
        shard = self.shards[index]
        gauge = self._depth_gauges[index]
        try:
            while True:
                items = queue.poll_wait(shard.scheduler.max_batch * 4,
                                        timeout=self.poll_interval)
                for _seq, record in items:
                    shard.ingest(record)
                shard.flush_ready(self._clock())
                gauge.set(len(queue))
                if self._stop.is_set() and not len(queue):
                    break
            for _system, batch in shard.drain_batches():
                shard.score_batch(batch)
        except Exception as exc:  # lint: disable=blanket-except
            # A dying shard thread must leave a trace for stop() to
            # surface instead of hanging the whole runtime silently.
            self.shard_errors.append(exc)

    def stop(self, timeout: float | None = 30.0) -> list[AnomalyReport]:
        """Signal shards to finish, join them, and return the reports."""
        if self._process is not None:
            from .replay import report_sort_key

            self._process.stop(timeout)
            self._started = False
            reports = self.take_reports()
            reports.sort(key=report_sort_key)
            return reports
        if not self._started:
            return self.take_reports()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self._started = False
        if self.shard_errors:
            raise RuntimeError(
                f"{len(self.shard_errors)} shard thread(s) failed"
            ) from self.shard_errors[0]
        return self.take_reports()
