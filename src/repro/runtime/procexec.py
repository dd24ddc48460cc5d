"""Process-based shard executor: true parallelism past the GIL.

The synchronous engine scores every shard on the caller's thread, so
neither inference latency nor CPU-bound scoring overlaps across shards.
This module runs each shard in its own **worker process**:

* **Warm start via shared memory** — the parent packs every model /
  featurizer array into one :class:`~repro.runtime.broadcast.WeightBroadcast`
  arena; each child attaches zero-copy and rebuilds a warm pipeline
  replica before its first batch (npz fallback when shm is unavailable).
* **Determinism by construction** — routing stays system-sticky, records
  cross the pipe as compact :class:`WireRecord` tuples in submit order,
  and each child runs the same :class:`~repro.runtime.shard.ShardState`
  parse/windowing/gating code over exactly the records sync mode would
  hand that shard, in the same order (so each per-system Drain parser
  sees the same sequence).  Report identity is keyed by window id
  (system + per-system window ordinal), which is a pure function of the
  input stream — so ``repro replay --shards N --executor process``
  renders byte-identical to sync mode.
* **A cheap output poll** — each spawn epoch shares a ``produced``
  counter that only the child writes, bumped after every message it
  puts on its output queue.  The parent counts what it reads
  (``consumed``) and touches the queue only while it is behind, so a
  record whose shard has nothing new to report costs no pipe syscall.
* **Crash supervision with exactly-once output** — the parent keeps a
  per-shard journal of every record it ever sent.  A dead child
  (detected on flush/drain, or killed by the ``runtime.proc.death``
  fault) is respawned with the same warm-start path on a **fresh epoch**
  with fresh IPC queues (a SIGKILL mid-write can corrupt a pipe, so old
  queues are abandoned unread), and the journal is refed.  The respawned
  child recomputes every window; the parent deduplicates on window id,
  so nothing is lost and nothing is emitted twice.  If respawning is
  exhausted (:class:`~repro.runtime.supervisor.RespawnPolicy`), the
  shard degrades to a parent-side pattern-library fallback — the same
  degraded path an unhealthy in-process worker takes.

The ``multiprocessing`` constructions here (and in ``broadcast``) are
the only ones the project permits — the ``direct-process`` lint rule
enforces that.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

from ..obs import MetricsRegistry, use_registry
from ..testing.faultpoints import fault_point
from .broadcast import WeightBroadcast, pipeline_state
from .shard import ShardState
from .supervisor import RespawnPolicy, WorkerSupervisor
from .worker import WorkerError, build_worker_from_spec

__all__ = ["ProcessWorkerSpec", "ProcessShardExecutor", "WireRecord"]

# Records per IPC message: amortizes pickling/queue overhead without
# letting the parent run far ahead of a crashed child.
_CHUNK = 32


class WireRecord(NamedTuple):
    """One record as it crosses the pipe and sits in the journal: the
    four fields admission reads (:func:`~repro.runtime.shard.normalize_record`).
    Journal order is the submit order, so no sequence number rides along."""

    timestamp: datetime
    system: str
    host: str
    message: str


@dataclass(frozen=True)
class ProcessWorkerSpec:
    """Declarative, broadcast-backed recipe for per-process workers.

    The executor cannot ship live worker objects to children (models and
    ensembles hold unpicklable or unshareable state), so it ships this
    spec instead: children rebuild their worker from it via
    :func:`~repro.runtime.worker.build_worker_from_spec`.  ``broadcast``
    stays parent-side; children receive only its picklable handle.
    """

    kind: str
    threshold: float = 0.5
    cost: tuple | None = None
    detectors: str | None = None
    seed: int = 0
    llm_spec: str | None = None
    gate: bool = True
    broadcast: WeightBroadcast | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "model", "ensemble"):
            raise ValueError(
                f"unknown worker spec kind {self.kind!r}; "
                "expected synthetic|model|ensemble")
        if self.kind == "model" and self.broadcast is None:
            raise ValueError("model worker spec requires a weight broadcast")
        if self.kind == "ensemble" and not self.detectors:
            raise ValueError("ensemble worker spec requires a detectors spec")

    # ------------------------------------------------------------------
    @classmethod
    def synthetic(cls, threshold: float = 0.5, cost: tuple | None = None,
                  gate: bool = True) -> "ProcessWorkerSpec":
        """Deterministic content-hash scorer (tests, benchmarks, CLI
        runs without a model)."""
        return cls(kind="synthetic", threshold=threshold, cost=cost, gate=gate)

    @classmethod
    def for_pipeline(cls, pipeline, *, llm_spec: str | None = None,
                     use_shm: bool = True) -> "ProcessWorkerSpec":
        """Broadcast a fitted LogSynergy pipeline; children score through
        warm :class:`~repro.runtime.worker.ModelWorker` replicas."""
        arrays, meta = pipeline_state(pipeline)
        return cls(kind="model", llm_spec=llm_spec,
                   broadcast=WeightBroadcast(arrays, meta, use_shm=use_shm))

    @classmethod
    def ensemble(cls, detectors: str, *, seed: int = 0, pipeline=None,
                 llm_spec: str | None = None,
                 use_shm: bool = True) -> "ProcessWorkerSpec":
        """Children rebuild a detector ensemble from its spec string
        (plus an optional broadcast pipeline for model members).  The
        pattern gate is off, as in :meth:`InferenceRuntime.from_ensemble`."""
        broadcast = None
        if pipeline is not None:
            arrays, meta = pipeline_state(pipeline)
            broadcast = WeightBroadcast(arrays, meta, use_shm=use_shm)
        return cls(kind="ensemble", detectors=detectors, seed=seed,
                   llm_spec=llm_spec, gate=False, broadcast=broadcast)


class _AbandonedWorker:
    """Worker for a shard whose process cannot be kept alive: every
    batch fails, so the supervisor degrades it and the shard answers
    from the pattern-library fallback."""

    def score_batch(self, batch):
        raise WorkerError("shard process abandoned after repeated failures")


class _ShardSlot:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "in_q", "out_q", "produced", "consumed",
                 "epoch", "journal", "buffer", "emitted", "restarts",
                 "fallback")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.in_q = None
        self.out_q = None
        # This epoch's output messages: ``produced`` is the child's
        # shared count of puts, ``consumed`` the parent's count of reads.
        self.produced = None
        self.consumed = 0
        self.epoch = 0
        # Every record ever submitted to this shard, in submit order —
        # the respawn path refeeds this to rebuild the child's state.
        self.journal: list[WireRecord] = []
        self.buffer: list[WireRecord] = []
        # Window ids already emitted to the engine (membership checks
        # only): the exactly-once guarantee across respawns.
        self.emitted: set[str] = set()
        self.restarts = 0
        self.fallback: ShardState | None = None


class ProcessShardExecutor:
    """Drives one worker process per shard for an
    :class:`~repro.runtime.engine.InferenceRuntime`."""

    def __init__(self, spec: ProcessWorkerSpec, *, shards: int,
                 event_fn, emit,
                 window: int = 10, step: int = 5, max_batch: int = 16,
                 max_latency: float | None = None,
                 supervisor_options: dict | None = None,
                 fallback_threshold: float = 0.5,
                 max_patterns: int = 100_000,
                 registry=None, prefix: str = "runtime",
                 poll_interval: float = 0.05,
                 drain_timeout: float = 60.0,
                 respawn_policy: RespawnPolicy | None = None):
        import multiprocessing

        self.spec = spec
        self._emit = emit
        # For the parent-side degraded fallback only — worker processes
        # parse in their own replica (build_worker_from_spec's hook).
        self._event_fn = event_fn
        self._registry = registry
        self._clock = registry.clock
        self._prefix = prefix
        self._poll_interval = poll_interval
        self._drain_timeout = drain_timeout
        self._policy = respawn_policy or RespawnPolicy()
        # The injected clock/sleep hooks tests wire into supervisors are
        # closures — not reliably picklable, and meaningless in a child
        # that keeps its own time.  Children get the sanitized rest.
        child_options = {key: value
                         for key, value in (supervisor_options or {}).items()
                         if key not in ("clock", "sleep")}
        self._shard_params = {
            "window": window, "step": step, "max_batch": max_batch,
            "max_latency": max_latency,
            "fallback_threshold": fallback_threshold,
            "max_patterns": max_patterns, "prefix": prefix,
            "supervisor_options": child_options,
        }
        self._supervisor_options = dict(supervisor_options or {})
        # Fork keeps the broadcast attach cheap (the arena is already
        # mapped); spawn is the portable fallback.
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        self._ctx = multiprocessing.get_context(method)
        self._slots = [_ShardSlot(index) for index in range(shards)]
        self._started = False
        self._stopped = False
        self._spawned = registry.counter(f"{prefix}.proc.spawned")
        self._deaths = registry.counter(f"{prefix}.proc.deaths")
        self._restarts = registry.counter(f"{prefix}.proc.restarts")
        self._spawn_failures = registry.counter(f"{prefix}.proc.spawn_failures")
        self._refed = registry.counter(f"{prefix}.proc.refed_records")
        self._rebroadcasts = registry.counter(f"{prefix}.proc.rebroadcasts")
        self._live = registry.gauge(f"{prefix}.proc.live")
        broadcast_bytes = registry.gauge(f"{prefix}.proc.broadcast_bytes")
        if spec.broadcast is not None:
            broadcast_bytes.set(spec.broadcast.total_bytes)

    # ------------------------------------------------------------------
    def _child_cfg(self) -> dict:
        cfg = {
            "kind": self.spec.kind, "threshold": self.spec.threshold,
            "cost": self.spec.cost, "detectors": self.spec.detectors,
            "seed": self.spec.seed, "llm_spec": self.spec.llm_spec,
            "gate": self.spec.gate, "handle": None,
        }
        if self.spec.broadcast is not None:
            cfg["handle"] = self.spec.broadcast.handle()
        cfg.update(self._shard_params)
        return cfg

    def ensure_started(self) -> None:
        if self._started:
            return
        if self._stopped:
            raise RuntimeError("process executor already stopped")
        self._started = True
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _ShardSlot) -> None:
        """Launch ``slot``'s worker process on a fresh epoch; abandons
        the shard to the degraded fallback when attempts run out."""
        for _attempt in range(self._policy.max_spawn_attempts):
            try:
                fault_point("runtime.proc.spawn")
                slot.epoch += 1
                slot.in_q = self._ctx.Queue()
                slot.out_q = self._ctx.Queue()
                slot.produced = self._ctx.RawValue("Q", 0)
                slot.consumed = 0
                process = self._ctx.Process(
                    target=_shard_process_main,
                    args=(slot.index, slot.epoch, self._child_cfg(),
                          slot.in_q, slot.out_q, slot.produced),
                    name=f"repro-proc-shard-{slot.index}", daemon=True,
                )
                process.start()
            except (OSError, RuntimeError):
                self._spawn_failures.inc()
                continue
            slot.process = process
            self._spawned.inc()
            self._refresh_live()
            return
        self._abandon(slot)

    def _refresh_live(self) -> None:
        live = 0
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                live += 1
        self._live.set(live)

    # ------------------------------------------------------------------
    def _accept(self, slot: _ShardSlot, report) -> None:
        """Emit a child (or fallback) report exactly once per window."""
        window_id = report.metadata.get("window_id")
        if window_id is not None:
            if window_id in slot.emitted:
                return
            slot.emitted.add(window_id)
        self._emit(report)

    def _abandon_queues(self, slot: _ShardSlot) -> None:
        # Never read from a dead child's queues: a SIGKILL mid-write can
        # leave a partial pickle in the pipe.  Close and walk away.
        for ipc in (slot.in_q, slot.out_q):
            if ipc is not None:
                ipc.close()
                ipc.cancel_join_thread()
        slot.in_q = None
        slot.out_q = None

    def _abandon(self, slot: _ShardSlot) -> None:
        """Give up on ``slot``'s process: serve it from a parent-side
        degraded shard (pattern-library fallback), refed from the
        journal so no admitted record is lost."""
        self._abandon_queues(slot)
        slot.process = None
        self._refresh_live()
        options = dict(self._supervisor_options)
        options.setdefault("clock", self._registry.clock)
        options.update(max_retries=0, unhealthy_after=1,
                       cooldown=float("inf"))
        scope = f".shard{slot.index}"
        supervisor = WorkerSupervisor(
            _AbandonedWorker(), registry=self._registry,
            prefix=self._prefix, scope=scope, **options)
        params = self._shard_params
        slot.fallback = ShardState(
            slot.index, supervisor,
            event_fn=self._event_fn,
            emit=lambda report, _slot=slot: self._accept(_slot, report),
            registry=self._registry, clock=self._registry.clock,
            window=params["window"], step=params["step"],
            max_batch=params["max_batch"], max_latency=params["max_latency"],
            fallback_threshold=params["fallback_threshold"],
            max_patterns=params["max_patterns"],
            prefix=self._prefix, scope=scope, spans=False,
            gate=self.spec.gate,
        )
        slot.buffer = []
        for record in slot.journal:
            slot.fallback.ingest(record)
            slot.fallback.flush_ready(self._clock())

    def _recover(self, slot: _ShardSlot) -> None:
        """A dead worker process: count it, respawn on a fresh epoch,
        and refeed the journal through the warm-start path."""
        self._deaths.inc()
        if slot.process is not None:
            slot.process.join(timeout=1.0)
        self._abandon_queues(slot)
        slot.process = None
        slot.buffer = []
        if slot.restarts >= self._policy.max_restarts:
            self._abandon(slot)
            return
        slot.restarts += 1
        self._spawn(slot)
        if slot.fallback is not None:
            return
        self._restarts.inc()
        if slot.journal:
            for start in range(0, len(slot.journal), _CHUNK):
                slot.in_q.put(("recs", slot.journal[start:start + _CHUNK]))
            self._refed.inc(len(slot.journal))

    def swap_weights(self, model_state: dict) -> None:
        """Promote new model weights into every shard process.

        Rebuilds the weight broadcast with the ``model/*`` arrays
        replaced (featurizer state is unchanged — the candidate was
        fine-tuned behind the same featurizers), installs it as the
        spec every future respawn warm-starts from, then ships the
        state to live children in-band.  Dead children are recovered
        through the normal respawn path, which now attaches the new
        arena.  The old arena is unlinked only after the replacement is
        fully populated; children that still hold mappings keep them
        until their own close.
        """
        import dataclasses

        from .broadcast import attach

        if self.spec.kind != "model" or self.spec.broadcast is None:
            raise ValueError(
                "weight swap requires a model worker spec with a broadcast, "
                f"got kind={self.spec.kind!r}")
        self.ensure_started()
        old = self.spec.broadcast
        attached = attach(old.handle())
        try:
            prefix = "model/"
            expected = {key[len(prefix):] for key in attached.arrays
                        if key.startswith(prefix)}
            if set(model_state) != expected:
                raise ValueError(
                    "candidate state keys do not match the serving model "
                    f"({len(model_state)} vs {len(expected)} arrays)")
            arrays = {}
            for key, value in attached.arrays.items():
                if key.startswith(prefix):
                    arrays[key] = model_state[key[len(prefix):]]
                else:
                    arrays[key] = value
            # The constructor copies every array into the fresh arena,
            # so the zero-copy views above are read exactly once while
            # the old mapping is still alive.
            replacement = WeightBroadcast(arrays, attached.meta,
                                          use_shm=old.via_shared_memory)
        finally:
            attached.close()
        self.spec = dataclasses.replace(self.spec, broadcast=replacement)
        old.unlink()
        self._rebroadcasts.inc()
        for slot in self._slots:
            if slot.fallback is not None:
                continue
            if slot.process is None or not slot.process.is_alive():
                self._recover(slot)
                continue
            slot.in_q.put(("swap", model_state))

    def _kill(self, slot: _ShardSlot) -> None:
        if slot.process is not None and slot.process.pid is not None:
            # Already-exited child: nothing to kill, recovery proceeds.
            with contextlib.suppress(ProcessLookupError):
                os.kill(slot.process.pid, signal.SIGKILL)

    # ------------------------------------------------------------------
    def submit(self, index: int, record) -> None:
        self.ensure_started()
        slot = self._slots[index]
        wire = WireRecord(record.timestamp, record.system, record.host,
                          record.message)
        slot.journal.append(wire)
        if slot.fallback is not None:
            slot.fallback.ingest(wire)
            slot.fallback.flush_ready(self._clock())
            return
        # The death probe: a `corrupt -> True` fault here SIGKILLs this
        # shard's process mid-stream (what the fuzz invariant exercises).
        if fault_point("runtime.proc.death", False):
            self._kill(slot)
        slot.buffer.append(wire)
        if len(slot.buffer) >= _CHUNK:
            self._flush(slot)
        self._poll_out(slot)

    def _flush(self, slot: _ShardSlot) -> None:
        if not slot.buffer or slot.fallback is not None:
            return
        if slot.process is None or not slot.process.is_alive():
            self._recover(slot)
            return
        slot.in_q.put(("recs", slot.buffer))
        slot.buffer = []

    def _poll_out(self, slot: _ShardSlot) -> None:
        """Opportunistically ship finished reports upward (non-blocking),
        so long streams don't buffer everything until drain.  The queue
        is read only while the child has put more than the parent took."""
        if slot.out_q is None:
            return
        while slot.consumed < slot.produced.value:
            try:
                message = slot.out_q.get_nowait()
            except queue.Empty:
                # Counted but still in the child's feeder thread.
                return
            except (OSError, EOFError):
                return
            slot.consumed += 1
            try:
                self._consume(slot, message)
            except _ChildFailed:
                # The next flush/drain notices the killed process and
                # runs the full recovery path.
                return

    def _consume(self, slot: _ShardSlot, message) -> bool:
        """Apply one child message; True when it was the awaited
        ``drained`` ack for the current epoch."""
        kind = message[0]
        if kind == "reports":
            # Any epoch: stale reports are deduplicated by window id.
            for report in message[2]:
                self._accept(slot, report)
            return False
        if kind == "drained":
            if message[1] == slot.epoch:
                self._merge_snapshot(message[2])
                return True
            return False
        if kind == "error":
            # The child loop is dead even if the process lingers.
            self._kill(slot)
            raise _ChildFailed(message[2])
        return False

    def _merge_snapshot(self, snapshot) -> None:
        """Fold a child's metric deltas into the parent registry."""
        for name, kind, payload in snapshot:
            if kind == "counter":
                if payload:
                    self._registry.counter(name).inc(payload)
            elif kind == "gauge":
                self._registry.gauge(name).set(payload)
            elif kind == "histogram":
                boundaries = tuple(payload["boundaries"])
                histogram = self._registry.histogram(name,
                                                     boundaries=boundaries)
                if histogram.boundaries != boundaries:
                    continue
                for position, bucket in enumerate(payload["bucket_counts"]):
                    histogram.bucket_counts[position] += bucket
                histogram.count += payload["count"]
                histogram.sum += payload["sum"]
                if payload["count"]:
                    histogram.min = min(histogram.min, payload["min"])
                    histogram.max = max(histogram.max, payload["max"])

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Full barrier: every shard flushes residual windows and acks.

        Dead children discovered here are recovered (respawn + journal
        refeed) and re-drained; the window-id dedup keeps the combined
        output exactly-once whatever happened in between.
        """
        self.ensure_started()
        for slot in self._slots:
            self._drain_slot(slot)

    def _drain_slot(self, slot: _ShardSlot) -> None:
        while slot.fallback is None:
            deadline = self._clock() + self._drain_timeout
            self._flush(slot)
            if slot.fallback is not None:
                break
            if slot.process is None or not slot.process.is_alive():
                self._recover(slot)
                continue
            slot.in_q.put(("drain", slot.epoch))
            acked = False
            failed = False
            while not acked and not failed:
                try:
                    message = slot.out_q.get(timeout=self._poll_interval)
                except queue.Empty:
                    if not slot.process.is_alive():
                        failed = True
                    elif self._clock() > deadline:
                        raise RuntimeError(
                            f"shard {slot.index} process did not drain "
                            f"within {self._drain_timeout}s")
                    continue
                except (OSError, EOFError):
                    failed = True
                    continue
                slot.consumed += 1
                try:
                    acked = self._consume(slot, message)
                except _ChildFailed:
                    failed = True
            if acked:
                return
            self._recover(slot)
        # Degraded mode: score residual batches on the caller's thread,
        # in the same canonical per-shard order the engine uses.
        residual = sorted(slot.fallback.drain_batches(),
                          key=lambda entry: entry[0])
        for _system, batch in residual:
            slot.fallback.score_batch(batch)

    def queue_depths(self) -> list[int]:
        """Records admitted but not yet handed to a worker process."""
        return [len(slot.buffer) for slot in self._slots]

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain, stop every worker process, release the arena."""
        if self._stopped:
            return
        if self._started:
            self.drain()
        self._stopped = True
        join_timeout = timeout if timeout is not None else 30.0
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                # A torn pipe just means the child is already gone; the
                # join/terminate ladder below reaps it either way.
                with contextlib.suppress(OSError, ValueError):
                    slot.in_q.put(("stop",))
                slot.process.join(timeout=join_timeout)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=join_timeout)
            slot.process = None
            self._abandon_queues(slot)
        self._refresh_live()
        if self.spec.broadcast is not None:
            self.spec.broadcast.unlink()


class _ChildFailed(RuntimeError):
    """A worker process reported a fatal error from its loop."""


# ---------------------------------------------------------------------------
# Worker-process entry point.
# ---------------------------------------------------------------------------

def _registry_snapshot(registry) -> list[tuple]:
    from ..obs.metrics import Counter, Gauge, Histogram

    snapshot: list[tuple] = []
    for name, metric in registry.metrics().items():
        if isinstance(metric, Counter):
            snapshot.append((name, "counter", metric.value))
        elif isinstance(metric, Gauge):
            snapshot.append((name, "gauge", metric.value))
        elif isinstance(metric, Histogram):
            snapshot.append((name, "histogram", {
                "boundaries": metric.boundaries,
                "bucket_counts": list(metric.bucket_counts),
                "count": metric.count, "sum": metric.sum,
                "min": metric.min, "max": metric.max,
            }))
    return snapshot


def _registry_reset(registry) -> None:
    """Zero counters/histograms after a snapshot so the next ``drained``
    ack ships deltas (gauges carry last-value semantics and stay)."""
    from ..obs.metrics import Counter, Histogram

    for metric in registry.metrics().values():
        if isinstance(metric, Counter):
            metric.value = 0.0
        elif isinstance(metric, Histogram):
            metric.bucket_counts = [0] * len(metric.bucket_counts)
            metric.count = 0
            metric.sum = 0.0
            metric.min = float("inf")
            metric.max = float("-inf")


def _shard_process_main(index: int, epoch: int, cfg: dict,
                        in_q, out_q, produced) -> None:
    """One shard's whole life inside its worker process.

    Builds a warm worker from the spec (attaching the weight broadcast),
    then serves ``recs`` / ``drain`` / ``stop`` messages.  Reports flow
    up tagged with the spawn epoch; the parent ignores stale acks and
    deduplicates reports, so this function never needs to know whether
    it is a first launch or a post-crash respawn over a refed journal.
    Every put is followed by a bump of the shared ``produced`` count,
    which is what tells the parent's poll there is something to read.
    """

    def send(message) -> None:
        out_q.put(message)
        produced.value += 1

    try:
        registry = MetricsRegistry()
        with use_registry(registry):
            worker, event_fn, gate = build_worker_from_spec(cfg)
            options = dict(cfg.get("supervisor_options") or {})
            options.setdefault("clock", registry.clock)
            scope = f".shard{index}"
            supervisor = WorkerSupervisor(
                worker, registry=registry, prefix=cfg["prefix"],
                scope=scope, **options)
            reports: list = []
            shard = ShardState(
                index, supervisor,
                event_fn=event_fn, emit=reports.append,
                registry=registry, clock=registry.clock,
                window=cfg["window"], step=cfg["step"],
                max_batch=cfg["max_batch"], max_latency=cfg["max_latency"],
                fallback_threshold=cfg["fallback_threshold"],
                max_patterns=cfg["max_patterns"],
                prefix=cfg["prefix"], scope=scope, spans=False, gate=gate,
            )
            while True:
                message = in_q.get()
                kind = message[0]
                if kind == "recs":
                    for record in message[1]:
                        shard.ingest(record)
                    shard.flush_ready(registry.clock())
                elif kind == "drain":
                    # Residual lanes flush in the same canonical order
                    # the synchronous engine uses (sorted by system).
                    residual = sorted(shard.drain_batches(),
                                      key=lambda entry: entry[0])
                    for _system, batch in residual:
                        shard.score_batch(batch)
                    if reports:
                        send(("reports", epoch, list(reports)))
                        reports.clear()
                    send(("drained", epoch, _registry_snapshot(registry)))
                    _registry_reset(registry)
                    continue
                elif kind == "swap":
                    # Hot weight promotion: only model specs receive
                    # this, and their worker is always a ModelWorker.
                    worker.load_weights(message[1])
                    continue
                elif kind == "stop":
                    break
                if reports:
                    send(("reports", epoch, list(reports)))
                    reports.clear()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return
    except Exception as exc:  # lint: disable=blanket-except
        # Last gasp: tell the parent this loop is dead so it can respawn
        # instead of waiting out the drain timeout.
        with contextlib.suppress(Exception):  # queue may already be gone
            send(("error", epoch, repr(exc)))
