"""Process executor: byte-identity to sync mode, crash recovery, stats."""

import dataclasses
import os
import queue
import signal
import threading
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    InferenceRuntime, ProcessShardExecutor, SyntheticWorker,
    render_reports, report_sort_key,
)
from repro.testing.plan import FaultInjector, FaultPlan, FaultSpec

from .conftest import (
    MODEL_SYSTEMS, FakeClock, multi_system_stream, six_system_model_stream,
)


def sync_replay(records, shards: int = 1, **kwargs):
    runtime = InferenceRuntime(
        SyntheticWorker(threshold=0.5), shards=shards, max_batch=4,
        max_latency=None, backpressure="block",
        registry=MetricsRegistry(), **kwargs)
    for record in records:
        runtime.submit(record)
    reports = runtime.drain()
    reports.sort(key=report_sort_key)
    return render_reports(reports)


def synthetic():
    return SyntheticWorker(threshold=0.5)


class StampedSleeper(SyntheticWorker):
    """Sleeps ``cost`` per batch; each report carries when its batch
    started scoring (``perf_counter`` is one monotonic clock across
    processes on Linux)."""

    def score_batch(self, batch):
        started = time.perf_counter()
        return [dataclasses.replace(report, metadata={
            **report.metadata, "scored_at": started})
            for report in super().score_batch(batch)]


def process_replay(records, shards: int, registry=None, **kwargs):
    registry = registry if registry is not None else MetricsRegistry()
    runtime = InferenceRuntime(
        synthetic(), executor="process",
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

        for shards in (1, 2):
            registry = MetricsRegistry()
            runtime = InferenceRuntime.from_ensemble(
                ensemble_from_spec("ewma,lof,rules:max", seed=0,
                                   registry=registry),
                executor="process", shards=shards, max_batch=4,
                max_latency=None, registry=registry)
            try:
                for record in records:
                    runtime.submit(record)
                reports = runtime.drain()
            finally:
                runtime.stop()
            reports.sort(key=report_sort_key)
            assert render_reports(reports) == golden, (
                f"diverged at shards={shards}")

    def test_model_broadcast_matches_sync(self, fitted_logsynergy, tmp_path):
        """Every shard process loads its own copy of the pipeline."""
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
            ensemble = ensemble_from_spec(detectors, pipeline=pipeline,
                                          registry=registry)
            runtime = InferenceRuntime.from_ensemble(
                ensemble, executor=executor, shards=shards, max_batch=4,
                max_latency=None, backpressure="block", registry=registry)
            try:
                for record in records:
                    runtime.submit(record)
                reports = runtime.drain()
            finally:
                runtime.stop()
            reports.sort(key=report_sort_key)
            counters = {name: metric.value
                        for name, metric in registry.metrics().items()
                        if name.startswith("detectors.")}
            return render_reports(reports), counters

        golden, golden_counters = replay("sync", 1)
        assert golden_counters["detectors.model.errors"] == 0
        assert golden_counters["detectors.model.windows"] > 0
        for executor, shards in (("sync", 2), ("sync", 3), ("process", 2),
                                 ("process", 3)):
            rendered, counters = replay(executor, shards)
            assert rendered == golden, (
                f"diverged under {executor} at shards={shards}")
            # The shard processes' copies of the ensemble count into
            # their own registries, whose deltas come home: the member
            # counters sum to the sync run's.
            assert counters == golden_counters, (
                f"detector counters moved under {executor} at shards={shards}")


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

    @pytest.mark.parametrize("served", ["model", "ensemble"])
    def test_an_abandoned_shard_gates_as_its_served_worker(
            self, served, fitted_logsynergy, tmp_path):
        """Shard 0 exhausts its spawn attempts, so the parent serves it
        from a degraded replica that gates as the served worker would:
        followers of a model runtime stay silent, an ensemble runtime
        answers every window.  The bytes equal a sync runtime whose
        shard 0 is degraded from the first record."""
        from collections import Counter

        from repro.core import LogSynergy
        from repro.detectors import ensemble_from_spec

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream(lines=90)

        def build(executor: str, registry):
            options = dict(executor=executor, shards=2, max_batch=4,
                           max_latency=None, registry=registry)
            # Both admit through the pipeline's parse, so window patterns
            # repeat and a gate would find followers.
            pipeline = LogSynergy.load_pipeline(tmp_path / "pipe")
            if served == "model":
                return InferenceRuntime.from_model(pipeline, **options)
            return InferenceRuntime.from_ensemble(
                ensemble_from_spec("ewma,lof,rules,model:max",
                                   pipeline=pipeline, registry=registry),
                **options)

        sync = build("sync", MetricsRegistry())
        sync.shards[0].supervisor.force_unhealthy(cooldown=float("inf"))
        for record in records:
            sync.submit(record)
        golden_reports = sync.drain()
        golden = render_reports(golden_reports)

        plan = FaultPlan((
            FaultSpec("runtime.proc.spawn", "raise", start=0, count=3),
        ), seed=0)
        registry = MetricsRegistry()
        with FaultInjector(plan, registry=registry) as injector:
            runtime = build("process", registry)
            try:
                for record in records:
                    runtime.submit(record)
                reports = runtime.drain()
            finally:
                runtime.stop()
        assert injector.total_fired == 3
        assert runtime._process._slots[0].fallback is not None
        assert registry.counter("runtime.proc.spawned").value == 1
        assert render_reports(reports) == golden

        # Not vacuous: shard 0's windows are answered degraded, every one
        # when ungated, none of the followers when gated.
        lines = Counter(record.system for record in records)
        windows = sum((count - 10) // 5 + 1 for system, count in lines.items()
                      if sync.router.shard_of(system) == 0)
        degraded = sum(1 for report in golden_reports
                       if report.metadata.get("degraded"))
        if served == "model":
            assert 0 < degraded < windows
        else:
            assert degraded == windows


class TestWeightSwap:
    """Promoted weights reach every shard process, respawns included."""

    @staticmethod
    def build(model_dir, executor: str, registry):
        from repro.core import LogSynergy

        pipeline = LogSynergy.load_pipeline(model_dir)
        runtime = InferenceRuntime.from_model(
            pipeline, executor=executor, shards=2, max_batch=4,
            max_latency=None, registry=registry)
        return pipeline, runtime

    @staticmethod
    def kill(runtime, index: int) -> None:
        process = runtime._process._slots[index].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)

    def run(self, model_dir, records, *, swap: bool, kill: bool,
            learn=None):
        """Replay ``records`` on 2 shard processes.  Between the halves:
        drain (every report of the first half is home), optionally swap
        in halved weights, optionally let the parent's pipeline learn
        ``learn`` records' templates, then optionally SIGKILL shard 0."""
        registry = MetricsRegistry()
        pipeline, runtime = self.build(model_dir, "process", registry)
        half = len(records) // 2
        try:
            runtime.start()
            for record in records[:half]:
                runtime.submit(record)
            reports = runtime.drain()
            if swap:
                runtime.swap_weights({
                    name: value * 0.5
                    for name, value in pipeline.model.state_dict().items()})
            for record in learn or ():
                pipeline.event_id_of(record.system, record.message)
            if kill:
                self.kill(runtime, 0)
            for record in records[half:]:
                runtime.submit(record)
            reports += runtime.drain()
        finally:
            runtime.stop()
        reports.sort(key=report_sort_key)
        return render_reports(reports), registry

    def test_a_bad_state_raises_under_both_executors(self, fitted_logsynergy,
                                                     tmp_path):
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream(lines=60)
        for executor in ("sync", "process"):
            registry = MetricsRegistry()
            pipeline, runtime = self.build(tmp_path / "pipe", executor,
                                           registry)
            before = {name: value.copy() for name, value
                      in pipeline.model.state_dict().items()}
            bad = dict(before)
            name = next(iter(bad))
            bad[name] = np.zeros(bad[name].shape + (2,), bad[name].dtype)
            try:
                for record in records[:len(records) // 2]:
                    runtime.submit(record)
                with pytest.raises(ValueError, match="shape mismatch"):
                    runtime.swap_weights(bad)
                for record in records[len(records) // 2:]:
                    runtime.submit(record)
                runtime.drain()
            finally:
                runtime.stop()
            after = pipeline.model.state_dict()
            assert all(np.array_equal(before[key], after[key])
                       for key in before), executor
            assert runtime.stats.degraded_windows == 0, executor
            assert registry.counter("runtime.weight_swaps").value == 0
            assert registry.counter("runtime.proc.deaths").value == 0

    def test_a_respawn_scores_with_the_swapped_weights(self, fitted_logsynergy,
                                                       tmp_path):
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()
        golden, _ = self.run(tmp_path / "pipe", records, swap=True,
                             kill=False)
        unswapped, _ = self.run(tmp_path / "pipe", records, swap=False,
                                kill=False)
        # Not vacuous: the swap moves the second half's scores.
        assert golden != unswapped
        rendered, registry = self.run(tmp_path / "pipe", records, swap=True,
                                      kill=True)
        assert registry.counter("runtime.proc.deaths").value == 1
        assert registry.counter("runtime.proc.restarts").value == 1
        assert rendered == golden

    def test_a_respawn_ignores_templates_the_parent_learned_later(
            self, fitted_logsynergy, tmp_path):
        """The parent's pipeline parses new logs of the served systems
        after start() (as an onboarding run does); a respawn still loads
        the snapshot the first child did, so its event ids match."""
        from repro.logs.generator import LogGenerator

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()
        learn = [record for index, system in enumerate(MODEL_SYSTEMS)
                 for record in LogGenerator(system, seed=90 + index)
                 .generate(150)]
        golden, _ = self.run(tmp_path / "pipe", records, swap=False,
                             kill=False, learn=learn)
        rendered, registry = self.run(tmp_path / "pipe", records, swap=False,
                                      kill=True, learn=learn)
        assert registry.counter("runtime.proc.deaths").value == 1
        assert rendered == golden


class TestShipping:
    """When a shard's unshipped journal tail crosses the pipe to its child."""

    @staticmethod
    def runtime(clock, max_latency):
        return InferenceRuntime(
            synthetic(), executor="process",
            shards=2, max_batch=4, max_latency=max_latency,
            registry=MetricsRegistry(clock=clock))

    def test_partial_buffer_ships_at_a_quarter_of_the_budget(self):
        # A budget whose quarter (0.125 s) is exact in binary, so the
        # fake clock lands on the boundary without rounding.
        clock = FakeClock()
        runtime = self.runtime(clock, max_latency=0.5)
        records = multi_system_stream(systems=6, lines=20)
        by_shard = {}
        for record in records:
            by_shard.setdefault(runtime.router.shard_of(record.system),
                                []).append(record)
        first, second = by_shard[0], by_shard[1]
        try:
            runtime.start()
            runtime.submit(first[0])
            clock.advance(0.0625)
            runtime.submit(first[1])
            clock.advance(0.0625 - 1e-6)
            runtime.submit(first[2])
            assert runtime.queue_depths() == [3, 0]
            clock.advance(1e-6)
            # A record for the other shard: shard 0 is checked too, so a
            # quiet shard still ships on time.
            runtime.submit(second[0])
            assert runtime.queue_depths() == [0, 1]
            clock.advance(0.125)
            runtime.submit(first[3])
            assert runtime.queue_depths() == [1, 0]
            for record in first[4:]:
                runtime.submit(record)
            runtime.drain()
        finally:
            runtime.stop()

    def test_without_a_budget_only_a_full_chunk_ships(self):
        clock = FakeClock()
        runtime = self.runtime(clock, max_latency=None)
        shard0 = [record for record in multi_system_stream(systems=2,
                                                           lines=40)
                  if runtime.router.shard_of(record.system) == 0]
        try:
            for record in shard0[:31]:
                runtime.submit(record)
                clock.advance(10.0)
            assert runtime.queue_depths() == [31, 0]
            runtime.submit(shard0[31])
            assert runtime.queue_depths() == [0, 0]
        finally:
            runtime.stop()

    def test_parent_runs_no_extra_thread(self):
        """The inbound pipe is written on the caller's thread: no
        queue feeder thread appears in the parent."""
        before = set(threading.enumerate())
        runtime = InferenceRuntime(
            synthetic(), executor="process",
            shards=2, max_batch=4, max_latency=0.05,
            registry=MetricsRegistry())
        try:
            runtime.start()
            for record in multi_system_stream(systems=3, lines=100):
                runtime.submit(record)
            assert set(threading.enumerate()) <= before
            runtime.drain()
            assert set(threading.enumerate()) <= before
        finally:
            runtime.stop()

    def test_flush_into_a_dead_pipe_recovers(self):
        """A child dies between flushes; the next chunk flush hits its
        closed pipe (BrokenPipeError) and recovers right there, and the
        output is still byte-identical to sync mode."""
        records = multi_system_stream(systems=3, lines=100)
        golden = sync_replay(records, shards=2)
        registry = MetricsRegistry()
        runtime = InferenceRuntime(
            synthetic(), executor="process",
            shards=2, max_batch=4, max_latency=None, registry=registry)
        executor = runtime._process
        victim = executor._slots[0]
        half = len(records) // 2
        try:
            for record in records[:half]:
                runtime.submit(record)
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            restarts = registry.counter("runtime.proc.restarts")
            remaining = iter(records[half:])
            while restarts.value == 0:
                runtime.submit(next(remaining))
            # Recovered at the flush, before any drain looked.
            assert victim.shipped == len(victim.journal)
            for record in remaining:
                runtime.submit(record)
            reports = runtime.drain()
        finally:
            runtime.stop()
        reports.sort(key=report_sort_key)
        assert render_reports(reports) == golden
        assert registry.counter("runtime.proc.deaths").value == 1
        assert registry.counter("runtime.proc.restarts").value == 1

    def test_paced_model_stream_flags_the_windows_sync_does(
            self, fitted_logsynergy, tmp_path):
        """Under a latency budget, batch composition follows timing, so
        float32 scores may move in their last digits; which windows
        alert must not."""
        from repro.core import LogSynergy

        fitted_logsynergy.save_pipeline(tmp_path / "pipe")
        records = six_system_model_stream()

        def verdicts(executor: str, max_latency):
            runtime = InferenceRuntime.from_model(
                LogSynergy.load_pipeline(tmp_path / "pipe"),
                executor=executor, shards=2, max_batch=4,
                max_latency=max_latency, registry=MetricsRegistry())
            try:
                for position, record in enumerate(records):
                    runtime.submit(record)
                    if position % 20 == 19:
                        time.sleep(0.01)
                reports = runtime.drain()
            finally:
                runtime.stop()
            return {(report.metadata["window_id"], report.is_anomalous)
                    for report in reports}

        golden = verdicts("sync", None)
        assert any(anomalous for _window, anomalous in golden)
        assert verdicts("process", 0.05) == golden


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
            synthetic(), shards=1, emit=lambda report: None,
            registry=MetricsRegistry())
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


class TestDeadlineWake:
    """A shard process keeps its own clock: windows past their budget
    are scored and reported with no further input."""

    def test_child_reports_at_the_deadline_without_more_input(self):
        from repro.runtime.procexec import WireRecord, _shard_process_main

        executor = ProcessShardExecutor(
            SyntheticWorker(threshold=-1.0), shards=1,
            emit=lambda report: None,
            max_latency=0.5, registry=MetricsRegistry())
        ctx = executor._ctx
        inbox, send_end = ctx.Pipe(duplex=False)
        out_q = ctx.Queue()
        produced = ctx.RawValue("Q", 0)
        process = ctx.Process(
            target=_shard_process_main,
            args=(0, 1, *executor._child_args(), inbox, out_q, produced),
            daemon=True)
        process.start()
        try:
            # An empty drain round trip: the child is up and looping.
            send_end.send(("drain", 1))
            assert out_q.get(timeout=30.0)[0] == "drained"
            # Ten records complete one window; the message says they were
            # admitted 400 ms ago, so 100 ms of the budget is left.
            records = [WireRecord(r.timestamp, r.system, r.host, r.message)
                       for r in multi_system_stream(systems=1, lines=10)]
            sent = time.perf_counter()
            send_end.send(("recs", records, 0.4))
            kind, epoch, reports = out_q.get(timeout=5.0)
            waited = time.perf_counter() - sent
            assert (kind, epoch) == ("reports", 1)
            assert [r.metadata["window_id"] for r in reports] == ["svc-00:0"]
            assert produced.value == 2
            # The budget counted from admission, not from receipt.
            assert 0.05 <= waited < 0.4
        finally:
            send_end.send(("stop",))
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()

    def test_child_wakes_a_flush_cost_before_the_deadline(self):
        """Once the child has timed one latency flush, it stops waiting
        that long before the next deadline, so the flush lands by it; its
        lead comes home with the drain ack."""
        from repro.runtime.procexec import WireRecord, _shard_process_main

        executor = ProcessShardExecutor(
            StampedSleeper(threshold=-1.0, cost=("sleep", 0.2)), shards=1,
            emit=lambda report: None,
            max_latency=0.5, registry=MetricsRegistry())
        ctx = executor._ctx
        inbox, send_end = ctx.Pipe(duplex=False)
        out_q = ctx.Queue()
        produced = ctx.RawValue("Q", 0)
        process = ctx.Process(
            target=_shard_process_main,
            args=(0, 1, *executor._child_args(), inbox, out_q, produced),
            daemon=True)
        process.start()
        records = [WireRecord(r.timestamp, r.system, r.host, r.message)
                   for r in multi_system_stream(systems=1, lines=15)]
        try:
            # The first window has no measured flush: scored at its
            # deadline, which times the flush at about 0.2 s.
            send_end.send(("recs", records[:10], 0.0))
            kind, _epoch, reports = out_q.get(timeout=30.0)
            assert kind == "reports"
            # Five more records complete the second window.
            sent = time.perf_counter()
            send_end.send(("recs", records[10:], 0.0))
            kind, _epoch, reports = out_q.get(timeout=5.0)
            assert [r.metadata["window_id"] for r in reports] == ["svc-00:1"]
            waited = reports[0].metadata["scored_at"] - sent
            # Woken about 0.3 s in, not at the 0.5 s deadline.
            assert 0.15 <= waited < 0.45
            send_end.send(("drain", 1))
            kind, _epoch, snapshot = out_q.get(timeout=30.0)
            assert kind == "drained"
            gauges = {name: value for name, metric_kind, value in snapshot
                      if metric_kind == "gauge"}
            assert gauges["runtime.flush_lead_seconds.shard0"] == \
                pytest.approx(0.2, abs=0.1)
        finally:
            send_end.send(("stop",))
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()

    def test_a_deadline_report_surfaces_on_another_shards_submit(self):
        """Shard A gets one window's records, then only shard B's system
        is fed: A's report must arrive well before drain, through the
        poll that B's submits run on every shard."""
        arrived = []
        runtime = InferenceRuntime(
            SyntheticWorker(threshold=-1.0), executor="process",
            shards=2, max_batch=16, max_latency=0.1,
            registry=MetricsRegistry(),
            on_report=lambda r: arrived.append(r.metadata["window_id"]))
        records = multi_system_stream(systems=2, lines=400)
        quiet = [r for r in records if r.system == "svc-00"][:10]
        busy = [r for r in records if r.system == "svc-01"]
        try:
            runtime.start()
            for record in quiet:
                runtime.submit(record)
            assert runtime.router.shard_of("svc-01") != \
                runtime.router.shard_of("svc-00")
            for record in busy:
                if "svc-00:0" in arrived:
                    break
                runtime.submit(record)
                time.sleep(0.01)
            assert "svc-00:0" in arrived
        finally:
            runtime.stop()


class TestValidationAndCleanup:
    def test_process_requires_a_worker(self):
        with pytest.raises(ValueError, match="requires a worker"):
            InferenceRuntime(None, executor="process")

    def test_process_requires_block_backpressure(self):
        # One check for both executors: admission never sheds.
        for executor in ("sync", "process"):
            with pytest.raises(ValueError, match="backpressure.*block"):
                InferenceRuntime(
                    synthetic(), executor=executor, backpressure="reject")

    def test_from_ensemble_runs_under_process_executor(self):
        from repro.detectors import ensemble_from_spec

        ensemble = ensemble_from_spec("ewma:max", registry=MetricsRegistry())
        runtime = InferenceRuntime.from_ensemble(
            ensemble, executor="process", registry=MetricsRegistry())
        try:
            for record in multi_system_stream(systems=2, lines=40):
                runtime.submit(record)
        finally:
            runtime.stop()
        assert runtime.stats.windows_seen > 0
        assert runtime.registry.counter("runtime.proc.spawned").value == 1

    def test_pump_raises_in_process_mode(self):
        runtime = InferenceRuntime(
            synthetic(), executor="process",
            registry=MetricsRegistry())
        with pytest.raises(RuntimeError, match="pump"):
            runtime.pump()
        runtime.stop()

    def test_pending_windows_raises_in_process_mode(self):
        # The windows pending in worker processes are invisible to the
        # parent: the count must refuse rather than report 0.
        runtime = InferenceRuntime(
            synthetic(), executor="process",
            max_batch=64, registry=MetricsRegistry())
        try:
            for record in multi_system_stream(systems=2, lines=40):
                runtime.submit(record)
            with pytest.raises(RuntimeError, match="pending_windows"):
                runtime.pending_windows()
        finally:
            runtime.stop()
