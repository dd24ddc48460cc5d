"""Engine integration: shard invariance, backpressure, degradation."""

import hashlib

import pytest

from repro.logs.generator import LogGenerator
from repro.obs import MetricsRegistry
from repro.runtime import (
    FlakyWorker, InferenceRuntime, SyntheticWorker,
    render_reports, report_sort_key,
)

from .conftest import FakeClock, multi_system_stream


def sync_runtime(shards: int = 1, worker=None, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return InferenceRuntime(worker or SyntheticWorker(), shards=shards,
                            **kwargs)


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
    # sha256 of the rendered reports below: how records are admitted
    # must never move these bytes.
    GOLDEN_SHA256 = (
        "e538ec5ae9a15f17148a199d19bb5bfe7b774a3437dbf35b9898b287ff8b1449")

    def test_block_policy_loses_nothing(self):
        """Sync admission never sheds: every record is windowed, and the
        rendered bytes match the pinned digest."""
        records = multi_system_stream(systems=1, lines=400)
        runtime = sync_runtime(1, max_batch=4, backpressure="block")
        for index, record in enumerate(records):
            runtime.submit(record)
            assert runtime.queue_depths() == [0]
            if index % 20 == 19:
                runtime.pump()  # a documented no-op under sync
        reports = runtime.drain()
        reports.sort(key=report_sort_key)
        assert runtime.stats.records_rejected == 0
        assert runtime.stats.records_dropped == 0
        # Every record was windowed: (400 - 10) // 5 + 1 windows.
        assert runtime.stats.windows_seen == 79
        rendered = render_reports(reports)
        assert hashlib.sha256(rendered.encode()).hexdigest() == self.GOLDEN_SHA256
        assert rendered == render_reports(
            run_sync(sync_runtime(1, max_batch=4), records))

    def test_sync_block_pumps_inline_instead_of_shedding(self):
        """With no queue between submit and the shard, sync admission
        does its work inline: nothing is shed and the output matches a
        default runtime byte for byte."""
        records = multi_system_stream(systems=1, lines=200)
        runtime = sync_runtime(1, max_batch=4, backpressure="block")
        reports = run_sync(runtime, records)
        assert runtime.stats.records_rejected == 0
        assert runtime.stats.records_dropped == 0
        assert runtime.stats.windows_seen == 39
        assert render_reports(reports) == render_reports(
            run_sync(sync_runtime(1, max_batch=4), records))

    def test_submit_scores_due_batches_inline(self):
        """No buffer sits between submit and the shard: a full lane is
        scored by the submit that completes it, with no pump or drain."""
        records = multi_system_stream(systems=1, lines=25)
        runtime = sync_runtime(1, max_batch=4)
        for record in records[:-1]:
            runtime.submit(record)
        assert runtime.stats.batches == 0
        runtime.submit(records[-1])
        # Window offsets 0, 5, 10 and 15 are complete: one full batch.
        assert runtime.stats.windows_seen == 4
        assert runtime.stats.batches == 1
        assert runtime.pending_windows() == 0


class TestLatencyFlush:
    """Once a shard's oldest window is past ``max_latency``, every lane
    flushes; a worker that fuses lanes gets them as one batch."""

    @staticmethod
    def flushed(worker_class):
        class Recording(worker_class):
            # Ungated, so every completed window reaches a batch.
            gated = False

            def score_batch(self, batch):
                batches.append([p.window_id for p in batch])
                return super().score_batch(batch)

        batches = []
        clock = FakeClock()
        runtime = sync_runtime(1, worker=Recording(),
                               max_batch=16, max_latency=0.5,
                               registry=MetricsRegistry(clock=clock))
        records = multi_system_stream(systems=3, lines=20)
        # svc-00 completes its first window alone and waits 250 ms;
        # then svc-01 and svc-02 complete theirs, and 250 ms later the
        # budget of svc-00's window runs out.
        for record in [r for r in records if r.system == "svc-00"][:10]:
            runtime.submit(record)
        clock.advance(0.25)
        for record in [r for r in records if r.system != "svc-00"][:20]:
            runtime.submit(record)
        assert batches == []
        clock.advance(0.25)
        runtime.submit(records[-1])
        return batches

    def test_fusing_worker_scores_every_lane_in_one_batch(self):
        assert self.flushed(SyntheticWorker) == \
            [["svc-00:0", "svc-01:0", "svc-02:0"]]

    def test_other_workers_score_lane_by_lane_oldest_head_first(self):
        class OneCallPerSystem(SyntheticWorker):
            fuse_lanes = False

        assert self.flushed(OneCallPerSystem) == \
            [["svc-00:0"], ["svc-01:0"], ["svc-02:0"]]


class TestLatencyBudget:
    """Once a shard has measured one latency flush, it fires the trigger
    at the last submit whose flush still lands by the oldest window's
    deadline: every window is emitted within ``max_latency`` of its
    enqueue time, scoring included.  Binary-exact costs keep the fake
    clock free of rounding."""

    BUDGET = 0.125
    GAP = 1 / 128       # between submits
    COST = 1 / 32       # per worker call

    def emitted_latencies(self, fuse_lanes: bool):
        clock = FakeClock()
        enqueued = {}
        cost = self.COST

        class Timed(SyntheticWorker):
            gated = False

            def score_batch(self, batch):
                for pending in batch:
                    enqueued[pending.window_id] = pending.enqueued_at
                clock.advance(cost)
                return super().score_batch(batch)

        Timed.fuse_lanes = fuse_lanes
        emitted = []
        registry = MetricsRegistry(clock=clock)
        runtime = sync_runtime(
            1, worker=Timed(threshold=-1.0), max_batch=16,
            max_latency=self.BUDGET, registry=registry,
            on_report=lambda r: emitted.append((r.metadata["window_id"],
                                                clock())))
        for record in multi_system_stream(systems=3, lines=120):
            clock.advance(self.GAP)
            runtime.submit(record)
        first_flush = emitted[0][1]
        latencies = [at - enqueued[window] for window, at in emitted
                     if enqueued[window] > first_flush]
        return latencies, registry

    @pytest.mark.parametrize("fuse_lanes", [True, False],
                             ids=["fused", "lane-by-lane"])
    def test_every_window_is_emitted_within_the_budget(self, fuse_lanes):
        latencies, _ = self.emitted_latencies(fuse_lanes)
        assert len(latencies) > 50
        assert max(latencies) <= self.BUDGET

    def test_lead_gauge_is_the_gap_plus_the_flush_cost(self):
        _, registry = self.emitted_latencies(fuse_lanes=True)
        lead = registry.metrics()["runtime.flush_lead_seconds"].value
        assert lead == pytest.approx(self.GAP + self.COST)

    def test_no_budget_exports_no_lead(self):
        registry = MetricsRegistry()
        runtime = sync_runtime(1, registry=registry, max_batch=4)
        run_sync(runtime, multi_system_stream(systems=2, lines=40))
        assert "runtime.flush_lead_seconds" not in registry.metrics()

    def test_a_timer_owner_wakes_a_flush_cost_before_the_deadline(self):
        clock = FakeClock()
        cost = self.COST

        class Timed(SyntheticWorker):
            def score_batch(self, batch):
                clock.advance(cost)
                return super().score_batch(batch)

        runtime = sync_runtime(1, worker=Timed(), max_batch=16,
                               max_latency=self.BUDGET,
                               registry=MetricsRegistry(clock=clock))
        shard = runtime.shards[0]
        records = iter(multi_system_stream(systems=1, lines=40))
        for _ in range(10):
            shard.ingest(next(records))
        # Nothing measured yet: wake at the deadline itself.
        assert shard.wake_at() == shard.scheduler.oldest_deadline()
        clock.advance(self.BUDGET)
        shard.flush_ready(clock(), timer=True)
        assert shard.pending_windows() == 0
        for _ in range(5):
            shard.ingest(next(records))
        deadline = shard.scheduler.oldest_deadline()
        assert shard.wake_at() == deadline - cost
        clock.now = deadline - cost - self.GAP
        shard.flush_ready(clock(), timer=True)
        assert shard.pending_windows() == 1
        clock.now = deadline - cost
        shard.flush_ready(clock(), timer=True)
        assert shard.pending_windows() == 0
        assert clock() == deadline


class TestGracefulDegradation:
    def test_unhealthy_shard_keeps_emitting_via_fallback(self):
        # svc-00..05 are dealt round-robin onto both shards.
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
            1, worker=worker, max_batch=4,
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
            SyntheticWorker(), executor="process", registry=MetricsRegistry())
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
