"""Process executor: byte-identity to sync mode, crash recovery, stats."""

import glob

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    InferenceRuntime, ProcessWorkerSpec, SyntheticWorker, message_pattern,
    render_reports, report_sort_key,
)
from repro.testing.plan import FaultInjector, FaultPlan, FaultSpec

from .conftest import multi_system_stream


def sync_replay(records, shards: int = 1, **kwargs):
    runtime = InferenceRuntime(
        lambda index: SyntheticWorker(threshold=0.5),
        pattern_fn=message_pattern, shards=shards, max_batch=4,
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
        None, pattern_fn=message_pattern, executor="process",
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

        # detect_stream_batch ingests novel templates into the featurizer
        # store, so every run must start from an identical on-disk
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


class TestValidationAndCleanup:
    def test_process_requires_spec(self):
        with pytest.raises(ValueError, match="process_spec"):
            InferenceRuntime(None, pattern_fn=message_pattern,
                             executor="process")

    def test_process_requires_block_backpressure(self):
        with pytest.raises(ValueError, match="block"):
            InferenceRuntime(
                None, pattern_fn=message_pattern, executor="process",
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
            None, pattern_fn=message_pattern, executor="process",
            process_spec=ProcessWorkerSpec.synthetic(),
            registry=MetricsRegistry())
        with pytest.raises(RuntimeError, match="pump"):
            runtime.pump()
        runtime.stop()

    def test_pending_windows_raises_in_process_mode(self):
        # The windows pending in worker processes are invisible to the
        # parent: the count must refuse rather than report 0.
        runtime = InferenceRuntime(
            None, pattern_fn=message_pattern, executor="process",
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
