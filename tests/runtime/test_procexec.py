"""Process executor: byte-identity to sync mode, crash recovery, stats."""

import glob
import os
import queue
import signal
import time

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    InferenceRuntime, ProcessShardExecutor, ProcessWorkerSpec, SyntheticWorker,
    message_event, render_reports, report_sort_key,
)
from repro.testing.plan import FaultInjector, FaultPlan, FaultSpec

from .conftest import MODEL_SYSTEMS, multi_system_stream, six_system_model_stream


def sync_replay(records, shards: int = 1, **kwargs):
    runtime = InferenceRuntime(
        lambda index: SyntheticWorker(threshold=0.5),
        event_fn=message_event, shards=shards, max_batch=4,
        max_latency=None, backpressure="block",
        registry=MetricsRegistry(), **kwargs)
    for record in records:
        runtime.submit(record)
    reports = runtime.drain()
    reports.sort(key=report_sort_key)
    return render_reports(reports)


def process_replay(records, shards: int, registry=None, spec=None, **kwargs):
    registry = registry if registry is not None else MetricsRegistry()
    runtime = InferenceRuntime(
        None, event_fn=message_event, executor="process",
        process_spec=spec or ProcessWorkerSpec.synthetic(threshold=0.5),
        shards=shards, max_batch=4, max_latency=None,
        backpressure="block", registry=registry, **kwargs)
    try:
        for record in records:
            runtime.submit(record)
        reports = runtime.drain()
    finally:
        runtime.stop()
    reports.sort(key=report_sort_key)
    return render_reports(reports), runtime


class TestByteIdentity:
    def test_process_matches_sync_across_shard_counts(self):
        records = multi_system_stream(systems=3, lines=100)
        golden = sync_replay(records)
        for shards in (1, 2, 4):
            rendered, runtime = process_replay(records, shards)
            assert rendered == golden, f"diverged at shards={shards}"
            spawned = runtime.registry.counter(
                "runtime.proc.spawned").value
            assert spawned == shards
        assert golden  # the stream does produce reports

    def test_ensemble_spec_matches_sync_ensemble(self):
        from repro.detectors import ensemble_from_spec

        records = multi_system_stream(systems=3, lines=80)
        registry = MetricsRegistry()
        ensemble = ensemble_from_spec("ewma,lof,rules:max", seed=0,
                                      registry=registry)
        runtime = InferenceRuntime.from_ensemble(
            ensemble, shards=1, max_batch=4, max_latency=None,
            backpressure="block", registry=registry)
        for record in records:
            runtime.submit(record)
        reports = runtime.drain()
        reports.sort(key=report_sort_key)
        golden = render_reports(reports)

        spec = ProcessWorkerSpec.ensemble("ewma,lof,rules:max", seed=0)
        for shards in (1, 2):
            rendered, _ = process_replay(records, shards, spec=spec)
            assert rendered == golden, f"diverged at shards={shards}"

    def test_model_broadcast_matches_sync(self, fitted_logsynergy, tmp_path):
        from repro.core import LogSynergy
        from repro.logs.generator import LogGenerator
        from repro.runtime.replay import replay_records

        # The admission parse ingests novel templates into the featurizer
        # stores, so every run must start from an identical on-disk
        # pipeline (exactly what the CLI does with --model-dir).
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        # The target system's own dialect, dense enough in repeats that
        # the pattern-library gate emits reports (same recipe as
        # test_replay.py), so the comparison below is not vacuous.
        records = LogGenerator("thunderbird", seed=21,
                               repeat_probability=0.6).generate(900)

        golden_model = LogSynergy.load_pipeline(tmp_path / "pipe")
        reports, _ = replay_records(golden_model, records, shards=1,
                                    max_batch=4, registry=MetricsRegistry())
        golden = render_reports(reports)

        process_model = LogSynergy.load_pipeline(tmp_path / "pipe")
        runtime = InferenceRuntime.from_model(
            process_model, executor="process", shards=2, max_batch=4,
            max_latency=None, backpressure="block",
            registry=MetricsRegistry())
        try:
            for record in records:
                runtime.submit(record)
            got = runtime.drain()
        finally:
            runtime.stop()
        got.sort(key=report_sort_key)
        assert render_reports(got) == golden
        assert golden  # model path produced reports

    def test_multi_system_model_matches_across_executors(
            self, fitted_logsynergy, tmp_path):
        """Each record is parsed by its own system's featurizer, whose
        input order is fixed by system-sticky routing: a six-system
        stream renders the same bytes under every executor and shard
        count."""
        from repro.core import LogSynergy

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()

        def replay(executor: str, shards: int):
            model = LogSynergy.load_pipeline(tmp_path / "pipe")
            runtime = InferenceRuntime.from_model(
                model, executor=executor, shards=shards, max_batch=4,
                max_latency=None, backpressure="block",
                registry=MetricsRegistry())
            try:
                for record in records:
                    runtime.submit(record)
                reports = runtime.drain()
            finally:
                if executor == "process":
                    runtime.stop()
            reports.sort(key=report_sort_key)
            return reports

        golden_reports = replay("sync", 1)
        golden = render_reports(golden_reports)
        for executor in ("sync", "process"):
            for shards in (1, 2, 4):
                assert render_reports(replay(executor, shards)) == golden, (
                    f"diverged under {executor} at shards={shards}")
        # Not vacuous: several systems alert, each under its own name.
        systems = {report.metadata["window_id"].rpartition(":")[0]
                   for report in golden_reports}
        assert len(systems & set(MODEL_SYSTEMS)) >= 3
        for report in golden_reports:
            assert report.metadata["window_id"].startswith(f"{report.system}:")


    def test_fitted_ensemble_matches_across_executors(
            self, fitted_logsynergy, tmp_path):
        """With a live model member the ensemble runtime admits records
        through the pipeline's per-system parse in every executor: the
        member scores the stamped ids (never a CRC bucket, which would
        degrade it) and the bytes match sync mode at every shard count."""
        from repro.core import LogSynergy
        from repro.detectors import ensemble_from_spec

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream(lines=90)
        detectors = "ewma,lof,rules,model:max"

        def replay(executor: str, shards: int):
            pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
            registry = MetricsRegistry()
            common = dict(executor=executor, shards=shards, max_batch=4,
                          max_latency=None, backpressure="block",
                          registry=registry)
            if executor == "process":
                runtime = InferenceRuntime(
                    None, event_fn=pipeline.event_id_of,
                    process_spec=ProcessWorkerSpec.ensemble(
                        detectors, pipeline=pipeline), **common)
            else:
                ensemble = ensemble_from_spec(detectors, pipeline=pipeline,
                                              registry=registry)
                runtime = InferenceRuntime.from_ensemble(ensemble, **common)
            try:
                for record in records:
                    runtime.submit(record)
                reports = runtime.drain()
            finally:
                if executor == "process":
                    runtime.stop()
            reports.sort(key=report_sort_key)
            return render_reports(reports), registry

        golden, registry = replay("sync", 1)
        assert registry.counter("detectors.model.errors").value == 0
        assert registry.counter("detectors.model.windows").value > 0
        for executor, shards in (("sync", 2), ("sync", 3), ("process", 2)):
            rendered, registry = replay(executor, shards)
            assert rendered == golden, (
                f"diverged under {executor} at shards={shards}")
            assert registry.counter("detectors.model.errors").value == 0, (
                f"model member degraded under {executor} at shards={shards}")
            assert registry.counter("detectors.model.windows").value > 0


class TestCrashRecovery:
    def test_sigkill_mid_stream_is_invisible_in_output(self):
        records = multi_system_stream(systems=3, lines=100)
        golden = sync_replay(records, shards=2)
        plan = FaultPlan((
            FaultSpec("runtime.proc.death", "corrupt", start=60, count=1,
                      mutate=lambda _value: True),
        ), seed=0)
        registry = MetricsRegistry()
        with FaultInjector(plan, registry=registry) as injector:
            rendered, _ = process_replay(records, 2, registry=registry)
        assert injector.total_fired == 1
        assert rendered == golden
        assert registry.counter("runtime.proc.deaths").value == 1
        assert registry.counter("runtime.proc.restarts").value == 1
        assert registry.counter("runtime.proc.refed_records").value > 0

    def test_sigkill_with_unread_model_output_recovers(
            self, fitted_logsynergy, tmp_path):
        """A real-model shard dies after its child counted an output
        message the parent never read: the respawn recomputes it, and
        the bytes equal sync mode's."""
        from repro.core import LogSynergy

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()

        def build(executor: str, registry):
            return InferenceRuntime.from_model(
                LogSynergy.load_pipeline(tmp_path / "pipe"),
                executor=executor, shards=2, max_batch=4, max_latency=None,
                backpressure="block", registry=registry)

        sync = build("sync", MetricsRegistry())
        for record in records:
            sync.submit(record)
        golden_reports = sync.drain()
        golden_reports.sort(key=report_sort_key)
        golden = render_reports(golden_reports)
        assert golden_reports

        registry = MetricsRegistry()
        runtime = build("process", registry)
        executor = runtime._process
        half = len(records) // 2
        try:
            # Hold the parent's output poll off so the child's reports
            # for the first half stay unread.
            executor._poll_out = lambda slot: None
            for record in records[:half]:
                runtime.submit(record)
            for slot in executor._slots:
                executor._flush(slot)
            victim = None
            deadline = time.monotonic() + 60.0
            while victim is None and time.monotonic() < deadline:
                victim = next((slot for slot in executor._slots
                               if slot.produced.value > slot.consumed), None)
                time.sleep(0.01)
            assert victim is not None, "no shard produced output"
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            del executor._poll_out
            for record in records[half:]:
                runtime.submit(record)
            reports = runtime.drain()
            # The respawn started a fresh count, and drain read it all.
            for slot in executor._slots:
                assert slot.consumed == slot.produced.value > 0
        finally:
            runtime.stop()
        reports.sort(key=report_sort_key)
        assert render_reports(reports) == golden
        assert registry.counter("runtime.proc.deaths").value == 1
        assert registry.counter("runtime.proc.restarts").value == 1
        assert registry.counter("runtime.proc.refed_records").value > 0

    def test_spawn_failure_is_retried(self):
        records = multi_system_stream(systems=2, lines=60)
        golden = sync_replay(records, shards=2)
        plan = FaultPlan((
            FaultSpec("runtime.proc.spawn", "raise", start=0, count=1),
        ), seed=0)
        registry = MetricsRegistry()
        with FaultInjector(plan, registry=registry) as injector:
            rendered, _ = process_replay(records, 2, registry=registry)
        assert injector.total_fired == 1
        assert rendered == golden
        assert registry.counter("runtime.proc.spawn_failures").value == 1
        assert registry.counter("runtime.proc.spawned").value == 2


class TestOutputPoll:
    def test_poll_reads_only_while_the_child_is_ahead(self):
        class CountingQueue:
            """Holds ``ready`` messages; counts every read attempt."""

            def __init__(self):
                self.ready = 0
                self.reads = 0

            def get_nowait(self):
                self.reads += 1
                if not self.ready:
                    raise queue.Empty
                self.ready -= 1
                return ("reports", 1, [])

        executor = ProcessShardExecutor(
            ProcessWorkerSpec.synthetic(), shards=1, event_fn=message_event,
            emit=lambda report: None, registry=MetricsRegistry())
        slot = executor._slots[0]
        slot.out_q = CountingQueue()
        slot.produced = executor._ctx.RawValue("Q", 0)
        executor._poll_out(slot)
        assert slot.out_q.reads == 0
        slot.out_q.ready = slot.produced.value = 2
        executor._poll_out(slot)
        assert (slot.out_q.reads, slot.consumed) == (2, 2)
        executor._poll_out(slot)
        assert slot.out_q.reads == 2
        # Counted but not yet in the pipe: one attempt, nothing taken.
        slot.produced.value = 3
        executor._poll_out(slot)
        assert (slot.out_q.reads, slot.consumed) == (3, 2)


class TestValidationAndCleanup:
    def test_process_requires_spec(self):
        with pytest.raises(ValueError, match="process_spec"):
            InferenceRuntime(None, event_fn=message_event,
                             executor="process")

    def test_process_requires_block_backpressure(self):
        with pytest.raises(ValueError, match="block"):
            InferenceRuntime(
                None, event_fn=message_event, executor="process",
                process_spec=ProcessWorkerSpec.synthetic(),
                backpressure="reject")

    def test_from_ensemble_refuses_process_executor(self):
        from repro.detectors import ensemble_from_spec

        ensemble = ensemble_from_spec("ewma:max", registry=MetricsRegistry())
        with pytest.raises(ValueError, match="ProcessWorkerSpec.ensemble"):
            InferenceRuntime.from_ensemble(ensemble, executor="process")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="broadcast"):
            ProcessWorkerSpec(kind="model")
        with pytest.raises(ValueError, match="detectors"):
            ProcessWorkerSpec(kind="ensemble")
        with pytest.raises(ValueError, match="kind"):
            ProcessWorkerSpec(kind="gpu")

    def test_pump_raises_in_process_mode(self):
        runtime = InferenceRuntime(
            None, event_fn=message_event, executor="process",
            process_spec=ProcessWorkerSpec.synthetic(),
            registry=MetricsRegistry())
        with pytest.raises(RuntimeError, match="pump"):
            runtime.pump()
        runtime.stop()

    def test_pending_windows_raises_in_process_mode(self):
        # The windows pending in worker processes are invisible to the
        # parent: the count must refuse rather than report 0.
        runtime = InferenceRuntime(
            None, event_fn=message_event, executor="process",
            process_spec=ProcessWorkerSpec.synthetic(), max_batch=64,
            registry=MetricsRegistry())
        try:
            for record in multi_system_stream(systems=2, lines=40):
                runtime.submit(record)
            with pytest.raises(RuntimeError, match="pending_windows"):
                runtime.pending_windows()
        finally:
            runtime.stop()

    def test_stop_leaves_no_shm_segments(self):
        before = set(glob.glob("/dev/shm/repro-bcast-*"))
        records = multi_system_stream(systems=2, lines=40)
        spec = ProcessWorkerSpec.synthetic(threshold=0.5)
        rendered, _ = process_replay(records, 2, spec=spec)
        assert rendered
        assert set(glob.glob("/dev/shm/repro-bcast-*")) == before
