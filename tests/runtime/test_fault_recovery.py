"""Injected worker faults vs. the supervisor's recovery budget.

Differential tests: a run with transient faults inside the retry budget
must render byte-identically to the fault-free golden run; faults beyond
the budget must degrade exactly the affected batch and nothing else.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    EnsembleWorker, FlakyWorker, InferenceRuntime, ModelWorker,
    SyntheticWorker, render_reports, report_sort_key,
)
from repro.testing import FaultInjector, FaultPlan, FaultSpec

from .conftest import multi_system_stream, six_system_model_stream

RECORDS = multi_system_stream(systems=3, lines=120)


def _run(records, *, supervisor_options=None, shards=2, max_batch=4,
         executor="sync", worker=None):
    registry = MetricsRegistry()
    runtime = InferenceRuntime(
        worker or SyntheticWorker(), shards=shards, max_batch=max_batch,
        registry=registry, supervisor_options=supervisor_options,
        executor=executor,
    )
    try:
        for record in records:
            runtime.submit(record)
        reports = runtime.drain()
    finally:
        runtime.stop()
    reports.sort(key=report_sort_key)
    return reports, runtime


def _golden():
    reports, _ = _run(RECORDS)
    return render_reports(reports)


class TestTransientRaisesWithinBudget:
    @pytest.mark.parametrize("raises", [1, 2, 3])
    def test_verdicts_identical_and_retries_counted(self, raises):
        golden = _golden()
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise", start=0, count=raises),
        ))
        options = {"max_retries": 3, "unhealthy_after": 1_000_000}
        with FaultInjector(plan) as injector:
            reports, runtime = _run(RECORDS, supervisor_options=options)
        assert injector.total_fired == raises
        assert render_reports(reports) == golden
        assert runtime.stats.degraded_windows == 0
        assert runtime.stats.worker_failures == raises
        # Every failed attempt within the budget consumed one retry.
        retries = runtime.registry.counter("runtime.worker_retries").value
        assert retries == raises


class TestRaisesBeyondBudget:
    def test_exactly_one_batch_degrades(self):
        golden_reports, _ = _run(RECORDS)
        # 4 consecutive raises exhaust 1 initial attempt + 3 retries on
        # the first batch; every later batch sees a healthy worker.
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise", start=0, count=4),
        ))
        options = {"max_retries": 3, "unhealthy_after": 1_000_000}
        with FaultInjector(plan) as injector:
            reports, runtime = _run(RECORDS, supervisor_options=options)
        assert injector.total_fired == 4
        degraded = [r for r in reports if r.metadata.get("degraded")]
        clean = [r for r in reports if not r.metadata.get("degraded")]
        assert runtime.stats.degraded_windows == len(degraded) > 0
        assert runtime.stats.worker_failures == 4
        # Untouched windows keep verdicts identical to the golden run.
        degraded_keys = {(r.system, r.metadata["window_id"]) for r in degraded}
        golden_clean = [r for r in golden_reports
                        if (r.system, r.metadata["window_id"]) not in degraded_keys]
        assert render_reports(clean) == render_reports(golden_clean)

    def test_persistent_failure_transitions_unhealthy_exactly_once(self):
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise", start=0,
                      count=1_000_000),
        ))
        options = {"max_retries": 1, "unhealthy_after": 1, "cooldown": 1e9}
        with FaultInjector(plan):
            reports, runtime = _run(RECORDS, shards=1,
                                    supervisor_options=options)
        assert runtime.stats.unhealthy_transitions == 1
        assert reports and all(r.metadata.get("degraded") for r in reports)
        assert runtime.stats.degraded_windows == len(reports)


class TestDropFaults:
    def test_dropped_result_degrades_only_that_batch(self):
        plan = FaultPlan((
            FaultSpec("runtime.worker.result", "drop", start=0, count=1),
        ))
        options = {"max_retries": 3, "unhealthy_after": 1_000_000}
        with FaultInjector(plan) as injector:
            reports, runtime = _run(RECORDS, supervisor_options=options)
        assert injector.total_fired == 1
        # A swallowed result is not an exception: no retries, straight to
        # the degraded fallback for that batch.
        assert runtime.registry.counter("runtime.worker_retries").value == 0
        assert runtime.stats.degraded_windows > 0

    def test_dropped_admission_is_silent_ingress_loss(self):
        # One fault point ahead of the executor split covers both.
        for executor in ("sync", "process"):
            _, golden_runtime = _run(RECORDS, executor=executor)
            plan = FaultPlan((
                FaultSpec("runtime.admit", "drop", start=0, count=30),
            ))
            with FaultInjector(plan) as injector:
                _, runtime = _run(RECORDS, executor=executor)
            assert injector.total_fired == 30, executor
            # Admission lies politely: nothing rejected, nothing counted
            # as dropped — the windows simply never form.
            assert runtime.stats.records_rejected == 0
            assert runtime.stats.records_dropped == 0
            assert (runtime.stats.windows_seen
                    < golden_runtime.stats.windows_seen), executor


def _retries(runtime):
    """Retries over the flat counter and every shard process's own."""
    return sum(metric.value
               for name, metric in runtime.registry.metrics().items()
               if name.startswith("runtime.worker_retries"))


def _fresh_worker(kind, model_dir):
    """A new worker of ``kind``; model-backed ones load their own copy of
    the pipeline, since admission changes its parser state."""
    from repro.core import LogSynergy
    from repro.detectors import ensemble_from_spec

    if kind == "synthetic":
        return SyntheticWorker()
    if kind == "flaky":
        return FlakyWorker(SyntheticWorker())
    pipeline = LogSynergy.load_pipeline(model_dir)
    if kind == "model":
        return ModelWorker(pipeline)
    return EnsembleWorker(ensemble_from_spec(
        "ewma,lof,rules,model:max", pipeline=pipeline,
        registry=MetricsRegistry()))


@pytest.mark.parametrize("executor", ["sync", "process"])
@pytest.mark.parametrize("kind", ["synthetic", "model", "ensemble", "flaky"])
class TestEveryWorkerTakesFaults:
    """The supervisor fires the worker fault points, so every worker
    takes injected faults under either executor.  One shard, so a shard
    process starts from the same fault schedule as the parent."""

    RECORDS = six_system_model_stream(lines=40)

    @pytest.fixture
    def run(self, kind, executor, fitted_logsynergy, tmp_path):
        fitted_logsynergy.save_pipeline(tmp_path / "pipe")

        def run(options=None):
            return _run(self.RECORDS, shards=1, executor=executor,
                        supervisor_options=options,
                        worker=_fresh_worker(kind, tmp_path / "pipe"))
        return run

    def test_a_raise_fires_once_per_attempt_and_is_retried(self, run,
                                                           executor):
        golden, golden_runtime = run()
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise", start=1, count=2),
        ))
        options = {"max_retries": 3, "unhealthy_after": 1_000_000}
        with FaultInjector(plan) as injector:
            reports, runtime = run(options)
        assert render_reports(reports) == render_reports(golden)
        assert runtime.stats.worker_failures == 2
        assert _retries(runtime) == 2
        assert runtime.stats.degraded_windows == 0
        if executor == "sync":
            # Shard processes fire on their own copy of the injector.
            batches = golden_runtime.stats.batches
            assert batches > 1
            assert injector.calls_at("runtime.worker.score") == batches + 2

    def test_a_dropped_result_degrades_that_batch(self, run):
        plan = FaultPlan((
            FaultSpec("runtime.worker.result", "drop", start=0, count=1),
        ))
        options = {"max_retries": 3, "unhealthy_after": 1_000_000}
        with FaultInjector(plan):
            _, runtime = run(options)
        assert runtime.stats.worker_failures == 0
        assert runtime.stats.degraded_windows > 0
        assert runtime.stats.unhealthy_transitions == 0
        assert _retries(runtime) == 0
