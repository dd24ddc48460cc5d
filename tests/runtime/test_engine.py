"""Engine integration: shard invariance, backpressure, degradation."""

import pytest

from repro.logs.generator import LogGenerator
from repro.obs import MetricsRegistry
from repro.runtime import (
    FlakyWorker, InferenceRuntime, ProcessWorkerSpec, SyntheticWorker,
    message_event, render_reports, report_sort_key,
)

from .conftest import FakeClock, multi_system_stream


def sync_runtime(shards: int = 1, worker_factory=None, **kwargs):
    factory = worker_factory or (lambda index: SyntheticWorker())
    kwargs.setdefault("registry", MetricsRegistry())
    return InferenceRuntime(factory, event_fn=message_event,
                            shards=shards, **kwargs)


def run_sync(runtime, records):
    for record in records:
        runtime.submit(record)
    reports = runtime.drain()
    reports.sort(key=report_sort_key)
    return reports


class TestShardInvariance:
    def test_output_identical_across_shard_counts(self):
        records = multi_system_stream(systems=6, lines=120)
        rendered = []
        stats = []
        for shards in (1, 2, 4):
            runtime = sync_runtime(shards, max_batch=4)
            rendered.append(render_reports(run_sync(runtime, records)))
            stats.append((runtime.stats.windows_seen,
                          runtime.stats.model_invocations))
        assert rendered[0] == rendered[1] == rendered[2]
        assert rendered[0]  # the stream does raise anomalies
        assert stats[0] == stats[1] == stats[2]

    def test_every_window_resolves_exactly_once(self):
        records = multi_system_stream(systems=3, lines=100)
        runtime = sync_runtime(2, max_batch=4)
        run_sync(runtime, records)
        latency = runtime.registry.metrics()["runtime.window_seconds"]
        assert latency.count == runtime.stats.windows_seen
        assert runtime.pending_windows() == 0

    def test_window_ids_are_stable_per_system_ordinals(self):
        records = multi_system_stream(systems=2, lines=60)
        runtime = sync_runtime(2, max_batch=4)
        reports = run_sync(runtime, records)
        for report in reports:
            system, _, ordinal = report.metadata["window_id"].rpartition(":")
            assert system == report.system
            assert ordinal.isdigit()


class TestBackpressure:
    """Tiny queues under each policy, with the consumer pumping only
    every 20 records: 8 of each 20 fit, so the shed counts are exact."""

    def _run_paced(self, policy: str):
        records = multi_system_stream(systems=1, lines=400)
        runtime = sync_runtime(1, max_batch=4, queue_capacity=8,
                               backpressure=policy)
        for index, record in enumerate(records):
            runtime.submit(record)
            if index % 20 == 19:
                runtime.pump()
        runtime.drain()
        return runtime, len(records)

    def test_block_policy_loses_nothing(self):
        runtime, total = self._run_paced("block")
        queue = runtime.queues[0]
        assert queue.total_offered == total
        assert queue.total_rejected == 0
        assert queue.total_dropped == 0
        assert runtime.stats.records_rejected == 0
        assert runtime.stats.records_dropped == 0
        # Every record was windowed: (400 - 10) // 5 + 1 windows.
        assert runtime.stats.windows_seen == 79

    def test_reject_policy_sheds_and_counts(self):
        runtime, _total = self._run_paced("reject")
        # 20 blocks of 20 records, 12 past capacity in each.
        assert runtime.stats.records_rejected == 240
        assert runtime.queues[0].total_rejected == 240
        assert runtime.stats.records_dropped == 0
        # The 160 survivors are still judged: (160 - 10) // 5 + 1.
        assert runtime.stats.windows_seen == 31

    def test_drop_oldest_policy_sheds_and_counts(self):
        runtime, _total = self._run_paced("drop-oldest")
        assert runtime.stats.records_dropped == 240
        assert runtime.queues[0].total_dropped == 240
        assert runtime.stats.records_rejected == 0
        assert runtime.stats.windows_seen == 31

    def test_sync_block_pumps_inline_instead_of_shedding(self):
        records = multi_system_stream(systems=1, lines=200)
        runtime = sync_runtime(1, max_batch=4, queue_capacity=4,
                               backpressure="block")
        reports = run_sync(runtime, records)
        assert runtime.stats.records_rejected == 0
        assert runtime.stats.records_dropped == 0
        assert runtime.stats.windows_seen == 39
        assert render_reports(reports) == render_reports(
            run_sync(sync_runtime(1, max_batch=4), records))


class TestGracefulDegradation:
    def test_unhealthy_shard_keeps_emitting_via_fallback(self):
        # svc-00..05 split onto both shards under the CRC32 router.
        records = multi_system_stream(systems=6, lines=120)
        runtime = sync_runtime(2, max_batch=4)
        runtime.shards[0].supervisor.force_unhealthy(cooldown=1e9)
        reports = run_sync(runtime, records)
        stats = runtime.stats
        assert stats.degraded_windows > 0
        assert stats.model_invocations > 0  # the healthy shard still scores
        assert stats.records_dropped == 0 and stats.records_rejected == 0
        # Degraded windows all resolved and are marked as such.
        degraded = [r for r in reports if r.metadata.get("degraded")]
        assert len(degraded) == stats.degraded_windows
        assert runtime.pending_windows() == 0

    def test_degraded_verdicts_are_not_remembered(self):
        records = multi_system_stream(systems=1, lines=150)
        runtime = sync_runtime(1, max_batch=4)
        runtime.shards[0].supervisor.force_unhealthy(cooldown=1e9)
        run_sync(runtime, records)
        libraries = runtime.shards[0].libraries.values()
        assert all(len(library) == 0 for library in libraries)

    def test_recovery_resumes_model_scoring(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        worker = FlakyWorker(SyntheticWorker())
        runtime = sync_runtime(
            1, worker_factory=lambda i: worker, max_batch=4,
            registry=registry, supervisor_options={"cooldown": 10.0},
        )
        runtime.shards[0].supervisor.force_unhealthy()
        first = multi_system_stream(systems=1, lines=120, seed=5)
        run_sync(runtime, first)
        assert runtime.stats.degraded_windows > 0
        assert runtime.stats.model_invocations == 0

        clock.advance(11.0)  # past the cooldown: next batch is the probe
        second = multi_system_stream(systems=1, lines=120, seed=9)
        run_sync(runtime, second)
        assert runtime.shards[0].supervisor.healthy
        assert runtime.stats.model_invocations > 0
        assert runtime.stats.worker_recoveries == 1


class TestExecutorGuards:
    def test_mode_guards(self):
        runtime = sync_runtime(1)
        with pytest.raises(RuntimeError):
            runtime.start()
        process = InferenceRuntime(
            None, event_fn=message_event, executor="process",
            process_spec=ProcessWorkerSpec.synthetic(),
            registry=MetricsRegistry())
        with pytest.raises(RuntimeError):
            process.pump()
        process.stop()

    def test_stop_scores_everything_like_drain(self):
        records = LogGenerator("thunderbird", seed=0).generate(300)
        stopped = sync_runtime(2)
        for record in records:
            stopped.submit(record)
        stop_reports = stopped.stop()
        drained = sync_runtime(2)
        for record in records:
            drained.submit(record)
        drain_reports = drained.drain()
        assert stop_reports  # the stream does raise reports
        assert render_reports(stop_reports) == render_reports(drain_reports)
        assert stopped.stats.windows_seen == drained.stats.windows_seen == 59
        assert stopped.pending_windows() == 0


class TestStats:
    def test_skip_rate_zero_before_any_window(self):
        runtime = sync_runtime(1)
        assert runtime.stats.model_skip_rate == 0.0

    def test_repetitive_stream_skips_model_calls(self):
        records = multi_system_stream(systems=1, lines=400)
        runtime = sync_runtime(1, max_batch=4)
        run_sync(runtime, records)
        stats = runtime.stats
        assert stats.library_hits + stats.model_invocations <= \
            stats.windows_seen
        assert 0.0 <= stats.model_skip_rate <= 1.0
