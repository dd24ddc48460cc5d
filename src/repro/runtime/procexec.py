"""Process-based shard executor: true parallelism past the GIL.

The synchronous engine scores every shard on the caller's thread, so
neither inference latency nor CPU-bound scoring overlaps across shards.
This module runs each shard in its own **worker process**:

* **Warm start from a pickled worker** — the executor pickles the
  runtime's one worker once, admission hook and pipeline included: a
  frozen snapshot that later changes to the parent's objects (an
  onboarding run parsing day-0 logs adds Drain templates) cannot reach.
  Every spawn and respawn, under fork or spawn, loads its own copy from
  those bytes.  Metrics inside the worker unpickle into the child's
  registry, whose deltas ship home.
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
  (``consumed``) and, on every submit, reads each shard's queue only
  while it is behind, so a shard with nothing new costs no pipe
  syscall, and a report a child emits at its deadline surfaces on the
  next submit to any shard.
* **One latency deadline per shard, from admission** — records reach a
  child over a one-way pipe written from the caller's thread (no feeder
  thread, and ``submit`` blocks while a lagging child's pipe is full).
  A shard's unshipped records (the tail of its journal the child has
  not been sent) ship when there are ``_CHUNK`` of them or, under a
  ``max_latency`` budget, once the oldest has waited
  ``_SHIP_AGE_SHARE`` of that budget.  Each shipment carries that
  record's age, a duration, so no clock is shared across processes: the
  child counts the budget of the windows it completes from its receive
  time minus that age, sleeps on its inbox until the shard's oldest
  deadline less the measured cost of a latency flush, and then scores
  every waiting lane (one batch for a model worker) without waiting for
  more input, so the flush lands by the deadline.  The child ships its
  current lead (``runtime.flush_lead_seconds.shard<i>``) home in each
  drain ack with its other gauges.
* **Crash supervision with exactly-once output** — the parent keeps a
  per-shard journal of every record it ever sent, and of every weight
  swap at the journal position where the child received it.  A dead child
  (detected on flush/drain, or killed by the ``runtime.proc.death``
  fault) is respawned from the same snapshot on a **fresh epoch**
  with fresh IPC channels (a SIGKILL mid-write can corrupt a pipe, so
  old channels are abandoned unread), and the journal is refed, each
  swap at its position.  The respawned child recomputes every window
  with the weights the first child scored it with; the parent
  deduplicates on window id, so nothing is lost and nothing is emitted
  twice.  After ``_SPAWN_ATTEMPTS`` consecutive failed launches, or
  once a shard has been respawned ``_MAX_RESTARTS`` times over the run
  (so a crash-looping worker cannot refeed its journal forever), the
  shard degrades to a parent-side pattern-library fallback — the same
  degraded path an unhealthy in-process worker takes, gated exactly as
  the served worker was.

The ``multiprocessing`` constructions here are the only ones the
project permits — the ``direct-process`` lint rule enforces that.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import queue
import signal
from datetime import datetime
from typing import NamedTuple

from ..obs import NULL_REGISTRY, MetricsRegistry, use_registry
from ..testing.faultpoints import fault_point
from .shard import ShardState
from .supervisor import WorkerSupervisor

__all__ = ["ProcessShardExecutor", "WireRecord"]

# Records per IPC message: amortizes pickling/pipe overhead without
# letting the parent run far ahead of a crashed child.
_CHUNK = 32
# Under a latency budget, a partial chunk ships once its oldest record
# has waited this share of ``max_latency``.  The budget counts from
# admission and the child wakes on its own at the deadline, but a record
# still in the parent cannot be scored: its window must reach the child
# with most of the budget left.
_SHIP_AGE_SHARE = 0.25
# Consecutive failed launches of one shard process before the shard is
# abandoned to the parent-side fallback, and respawns one shard may use
# over the whole run.
_SPAWN_ATTEMPTS = 3
_MAX_RESTARTS = 8
# A draining parent waits this long per read of a shard's output queue
# (then checks the child is alive), and at most _DRAIN_TIMEOUT for the
# shard's drain ack.
_POLL_INTERVAL = 0.05
_DRAIN_TIMEOUT = 60.0
# Per-join grace for a shard process to exit at stop before (and after)
# it is terminated.
_JOIN_TIMEOUT = 30.0


class WireRecord(NamedTuple):
    """One record as it crosses the pipe and sits in the journal: the
    four fields admission reads (:func:`~repro.runtime.shard.normalize_record`).
    Journal order is the submit order, so no sequence number rides along."""

    timestamp: datetime
    system: str
    host: str
    message: str


class _ShardSlot:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "inbox", "out_q", "produced", "consumed",
                 "epoch", "journal", "swaps", "shipped", "buffered_at",
                 "emitted", "restarts", "fallback")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        # The write end of the child's one-way inbound pipe.
        self.inbox = None
        self.out_q = None
        # This epoch's output messages: ``produced`` is the child's
        # shared count of puts, ``consumed`` the parent's count of reads.
        self.produced = None
        self.consumed = 0
        self.epoch = 0
        # Every record ever submitted to this shard, in submit order —
        # the respawn path refeeds this to rebuild the child's state.
        self.journal: list[WireRecord] = []
        # Each weight swap with the journal length when the child got
        # it: the refeed replays it there, so a respawn scores every
        # window with the weights the first child used.
        self.swaps: list[tuple[int, dict]] = []
        # How much of the journal the current child has been sent;
        # ``journal[shipped:]`` is still waiting in the parent.
        self.shipped = 0
        # When the oldest unshipped record was journaled (read only
        # under a latency budget).
        self.buffered_at = 0.0
        # Window ids already emitted to the engine (membership checks
        # only): the exactly-once guarantee across respawns.
        self.emitted: set[str] = set()
        self.restarts = 0
        self.fallback: ShardState | None = None


class ProcessShardExecutor:
    """Drives one worker process per shard for an
    :class:`~repro.runtime.engine.InferenceRuntime`."""

    def __init__(self, worker, *, shards: int, emit,
                 window: int = 10, step: int = 5, max_batch: int = 16,
                 max_latency: float | None = None,
                 supervisor_options: dict | None = None,
                 registry=None, prefix: str = "runtime"):
        import multiprocessing

        self._emit = emit
        # Kept for an abandoned shard's parent-side replica, which never
        # scores but admits, gates and fuses lanes as the served worker.
        self._worker = worker
        self._snapshot = pickle.dumps(worker, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry
        self._clock = registry.clock
        self._prefix = prefix
        # Age-bounded shipping: ``_oldest`` is never later than the
        # earliest ``buffered_at`` of a shard with unshipped records, so
        # one comparison per submit tells whether any shard is due.
        self._ship_age = (None if max_latency is None
                          else max_latency * _SHIP_AGE_SHARE)
        self._oldest = float("inf")
        # The injected clock tests wire into supervisors is a closure —
        # not reliably picklable, and meaningless in a child that keeps
        # its own time.  Children get the sanitized rest.
        self._child_options = {
            key: value for key, value in (supervisor_options or {}).items()
            if key != "clock"}
        # ShardState keyword arguments, shared by the child and the
        # parent-side fallback.
        self._shard_params = {
            "window": window, "step": step, "max_batch": max_batch,
            "max_latency": max_latency, "prefix": prefix,
        }
        self._supervisor_options = dict(supervisor_options or {})
        # Fork hands a child its worker bytes without a pipe copy; spawn
        # is the portable fallback.
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
        self._live = registry.gauge(f"{prefix}.proc.live")

    # ------------------------------------------------------------------
    def _child_args(self) -> tuple:
        """What a shard process starts from: the worker snapshot and the
        shard and supervisor settings."""
        return (self._snapshot, self._shard_params, self._child_options)

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
        for _attempt in range(_SPAWN_ATTEMPTS):
            try:
                fault_point("runtime.proc.spawn")
                slot.epoch += 1
                inbox, slot.inbox = self._ctx.Pipe(duplex=False)
                # Outbound stays a Queue: its feeder thread means the
                # child never blocks on output, so a journal refeed
                # cannot deadlock on a full pipe in each direction.
                slot.out_q = self._ctx.Queue()
                slot.produced = self._ctx.RawValue("Q", 0)
                slot.consumed = 0
                process = self._ctx.Process(
                    target=_shard_process_main,
                    args=(slot.index, slot.epoch, *self._child_args(),
                          inbox, slot.out_q, slot.produced),
                    name=f"repro-proc-shard-{slot.index}", daemon=True,
                )
                try:
                    process.start()
                finally:
                    # With only the child holding the read end, a dead
                    # child surfaces as BrokenPipeError on the next send.
                    inbox.close()
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

    def _abandon_ipc(self, slot: _ShardSlot) -> None:
        # Never read from a dead child's channels: a SIGKILL mid-write
        # can leave a partial pickle in the pipe.  Close and walk away.
        if slot.inbox is not None:
            slot.inbox.close()
        if slot.out_q is not None:
            slot.out_q.close()
            slot.out_q.cancel_join_thread()
        slot.inbox = None
        slot.out_q = None

    def _abandon(self, slot: _ShardSlot) -> None:
        """Give up on ``slot``'s process: serve it from a parent-side
        replica of the shard over the served worker, degraded for good
        (every window is answered by the pattern-library fallback), and
        refed from the journal so no admitted record is lost."""
        self._abandon_ipc(slot)
        slot.process = None
        self._refresh_live()
        scope = f".shard{slot.index}"
        supervisor = WorkerSupervisor(
            self._worker, registry=self._registry,
            prefix=self._prefix, scope=scope, **self._supervisor_options)
        supervisor.force_unhealthy(cooldown=float("inf"))
        slot.fallback = ShardState(
            slot.index, supervisor,
            emit=lambda report, _slot=slot: self._accept(_slot, report),
            registry=self._registry, scope=scope, spans=False,
            **self._shard_params,
        )
        for record in slot.journal:
            slot.fallback.ingest(record)
            slot.fallback.flush_ready(self._clock())

    def _recover(self, slot: _ShardSlot) -> None:
        """A dead worker process: count it, respawn on a fresh epoch
        from the worker snapshot, and refeed the journal with its swaps.
        A respawn that dies during the refeed is recovered the same way."""
        while True:
            self._deaths.inc()
            if slot.process is not None:
                slot.process.join(timeout=1.0)
            self._abandon_ipc(slot)
            slot.process = None
            if slot.restarts >= _MAX_RESTARTS:
                self._abandon(slot)
                return
            slot.restarts += 1
            self._spawn(slot)
            if slot.fallback is not None:
                return
            self._restarts.inc()
            try:
                start = 0
                for position, state in [*slot.swaps, (len(slot.journal), None)]:
                    for begin in range(start, position, _CHUNK):
                        end = min(begin + _CHUNK, position)
                        slot.inbox.send(("recs", slot.journal[begin:end], 0.0))
                    if state is not None:
                        slot.inbox.send(("swap", state))
                    start = position
            except OSError:
                continue
            slot.shipped = len(slot.journal)
            self._refed.inc(len(slot.journal))
            return

    def swap_weights(self, model_state: dict) -> None:
        """Promote new model weights into every shard process.

        Each shard's unshipped records ship first, so every record
        journaled so far is scored with the old weights; the state then ships
        in-band and is journaled at that position for the refeed.  The
        caller has already checked the state against the served model
        (:meth:`~repro.runtime.engine.InferenceRuntime.swap_weights`).
        """
        self.ensure_started()
        for slot in self._slots:
            self._flush(slot)
            if slot.fallback is not None:
                continue
            slot.swaps.append((len(slot.journal), model_state))
            if slot.process is None or not slot.process.is_alive():
                self._recover(slot)
                continue
            try:
                slot.inbox.send(("swap", model_state))
            except OSError:
                # The refeed replays the swap.
                self._recover(slot)

    def _kill(self, slot: _ShardSlot) -> None:
        if slot.process is not None and slot.process.pid is not None:
            # Already-exited child: nothing to kill, recovery proceeds.
            with contextlib.suppress(ProcessLookupError):
                os.kill(slot.process.pid, signal.SIGKILL)

    # ------------------------------------------------------------------
    def submit(self, index: int, record) -> None:
        """Journal one record for shard ``index``.

        A shard's unshipped records ship once there are ``_CHUNK`` of
        them; under a latency budget every shard's also ship once the
        oldest has waited ``_SHIP_AGE_SHARE`` of ``max_latency``.  A
        send blocks while the child's pipe is full.  Every shard's
        finished reports are collected on the way out.
        """
        self.ensure_started()
        slot = self._slots[index]
        wire = WireRecord(record.timestamp, record.system, record.host,
                          record.message)
        slot.journal.append(wire)
        now = None if self._ship_age is None else self._clock()
        if slot.fallback is not None:
            slot.fallback.ingest(wire)
            slot.fallback.flush_ready(self._clock())
        else:
            # The death probe: a `corrupt -> True` fault here SIGKILLs
            # this shard's process mid-stream (what the fuzz invariant
            # exercises).
            if fault_point("runtime.proc.death", False):
                self._kill(slot)
            unshipped = len(slot.journal) - slot.shipped
            if unshipped >= _CHUNK:
                self._flush(slot)
            elif now is not None and unshipped == 1:
                slot.buffered_at = now
                if now < self._oldest:
                    self._oldest = now
        if now is not None and now - self._oldest >= self._ship_age:
            self._ship_aged(now)
        for other in self._slots:
            self._poll_out(other)

    def _ship_aged(self, now: float) -> None:
        """Ship every shard whose oldest unshipped record is due; reset
        ``_oldest`` to the earliest one left waiting."""
        oldest = float("inf")
        for slot in self._slots:
            if slot.fallback is not None or slot.shipped == len(slot.journal):
                continue
            if now - slot.buffered_at >= self._ship_age:
                self._flush(slot)
            elif slot.buffered_at < oldest:
                oldest = slot.buffered_at
        self._oldest = oldest

    def _flush(self, slot: _ShardSlot) -> None:
        """Send the journal's unshipped tail to the shard's child."""
        if slot.shipped == len(slot.journal) or slot.fallback is not None:
            return
        # How long the oldest unshipped record has been admitted: the
        # child's latency budget for these records counts from there.
        age = (0.0 if self._ship_age is None
               else self._clock() - slot.buffered_at)
        try:
            slot.inbox.send(("recs", slot.journal[slot.shipped:], age))
        except OSError:
            # BrokenPipeError: the child is gone.  The refeed sends the
            # whole journal, these records included.
            self._recover(slot)
            return
        slot.shipped = len(slot.journal)

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
            deadline = self._clock() + _DRAIN_TIMEOUT
            self._flush(slot)
            if slot.fallback is not None:
                break
            if slot.process is None or not slot.process.is_alive():
                self._recover(slot)
                continue
            try:
                slot.inbox.send(("drain", slot.epoch))
            except OSError:
                self._recover(slot)
                continue
            acked = False
            failed = False
            while not acked and not failed:
                try:
                    message = slot.out_q.get(timeout=_POLL_INTERVAL)
                except queue.Empty:
                    if not slot.process.is_alive():
                        failed = True
                    elif self._clock() > deadline:
                        raise RuntimeError(
                            f"shard {slot.index} process did not drain "
                            f"within {_DRAIN_TIMEOUT}s")
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
        """Records admitted but not yet handed to a worker process (0
        for an abandoned shard, which ingests on submit)."""
        return [0 if slot.fallback is not None
                else len(slot.journal) - slot.shipped
                for slot in self._slots]

    def stop(self) -> None:
        """Drain and stop every worker process."""
        if self._stopped:
            return
        if self._started:
            self.drain()
        self._stopped = True
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                # A torn pipe just means the child is already gone; the
                # join/terminate ladder below reaps it either way.
                with contextlib.suppress(OSError, ValueError):
                    slot.inbox.send(("stop",))
                slot.process.join(timeout=_JOIN_TIMEOUT)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=_JOIN_TIMEOUT)
            slot.process = None
            self._abandon_ipc(slot)
        self._refresh_live()


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


def _shard_process_main(index: int, epoch: int, snapshot: bytes,
                        params: dict, supervisor_options: dict,
                        inbox, out_q, produced) -> None:
    """One shard's whole life inside its worker process.

    Loads its worker from the snapshot, then serves ``recs`` / ``swap`` /
    ``drain`` / ``stop`` messages.  While windows wait under a latency
    budget it waits for input only until the shard's oldest deadline
    less the measured cost of a latency flush
    (:meth:`~repro.runtime.shard.ShardState.wake_at`), and then scores
    every waiting lane with no further message, so the flush lands by
    the deadline.  Reports flow up tagged with the spawn epoch; the parent
    ignores stale acks and deduplicates reports, so this function never
    needs to know whether it is a first launch or a post-crash respawn
    over a refed journal.
    Every put is followed by a bump of the shared ``produced`` count,
    which is what tells the parent's poll there is something to read.
    """

    def send(message) -> None:
        out_q.put(message)
        produced.value += 1

    try:
        registry = MetricsRegistry()
        # Drain acks ship metrics only, so a span the worker opens here
        # is never read: keep none.
        registry.tracer = NULL_REGISTRY.tracer
        with use_registry(registry):
            # Under this registry, so the worker's metrics unpickle into
            # the one whose deltas each drain ack ships home.
            worker = pickle.loads(snapshot)
            scope = f".shard{index}"
            supervisor = WorkerSupervisor(
                worker, registry=registry, prefix=params["prefix"],
                scope=scope, **supervisor_options)
            reports: list = []
            shard = ShardState(
                index, supervisor, emit=reports.append, registry=registry,
                scope=scope, spans=False, **params,
            )
            clock = registry.clock
            while True:
                wake = shard.wake_at()
                if wake is None or inbox.poll(max(0.0, wake - clock())):
                    message = inbox.recv()
                else:
                    # No input came, and scoring every waiting lane now
                    # is what still lands by the oldest window's deadline.
                    message = ("deadline",)
                kind = message[0]
                if kind == "deadline":
                    shard.flush_ready(clock(), timer=True)
                elif kind == "recs":
                    admitted_at = clock() - message[2]
                    for record in message[1]:
                        shard.ingest(record, admitted_at)
                    shard.flush_ready(clock(), timer=True)
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
                    # Hot weight promotion: only a runtime over a model
                    # swaps, and its worker is always a ModelWorker.
                    worker.load_weights(message[1])
                    continue
                elif kind == "stop":
                    break
                if reports:
                    send(("reports", epoch, list(reports)))
                    reports.clear()
    except (KeyboardInterrupt, EOFError):  # pragma: no cover - teardown
        # EOFError: every write end of the inbound pipe is closed.
        return
    except Exception as exc:  # lint: disable=blanket-except
        # Last gasp: tell the parent this loop is dead so it can respawn
        # instead of waiting out the drain timeout.
        with contextlib.suppress(Exception):  # queue may already be gone
            send(("error", epoch, repr(exc)))
