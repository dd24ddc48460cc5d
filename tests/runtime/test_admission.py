"""Admission goes through the worker: the runtime is built from one
worker, and every record is parsed by that worker's own ``event_fn``
under either executor."""

import pytest

from repro.core.report import build_report
from repro.obs import MetricsRegistry
from repro.runtime import (
    EnsembleWorker, FlakyWorker, InferenceRuntime, ModelWorker,
    SyntheticWorker, message_event,
)

from .conftest import multi_system_stream, six_system_model_stream


def stamps_report(pending):
    """An anomalous report carrying the ``(event id, masked)`` pairs
    admission stamped on the window's entries."""
    return build_report(
        system=pending.system, score=1.0, threshold=0.5,
        messages=[entry.message for entry in pending.window],
        interpretations=[], stamps=[(entry.event_id, entry.masked)
                                    for entry in pending.window])


# Each keeps its base class's admission hook and reports what was
# stamped; ungated, so every window reaches it.  Module level, so shard
# processes can unpickle them.
class StampingModelWorker(ModelWorker):
    gated = False

    def score_batch(self, batch):
        return [stamps_report(pending) for pending in batch]


class StampingEnsembleWorker(EnsembleWorker):
    def score_batch(self, batch):
        return [stamps_report(pending) for pending in batch]


class StampingSyntheticWorker(SyntheticWorker):
    gated = False

    def score_batch(self, batch):
        return [stamps_report(pending) for pending in batch]


def served_worker(served, model_dir):
    """The worker under test and a fresh copy of the hook it should
    admit through (admission changes a pipeline's parser state, so the
    expectation parses through a pipeline of its own)."""
    from repro.core import LogSynergy
    from repro.detectors import ensemble_from_spec

    if served == "synthetic":
        return StampingSyntheticWorker(), message_event
    if served == "day0-ensemble":
        ensemble = ensemble_from_spec("ewma,rules:max",
                                      registry=MetricsRegistry())
        return StampingEnsembleWorker(ensemble), message_event
    pipeline = LogSynergy.load_pipeline(model_dir)
    expected = LogSynergy.load_pipeline(model_dir).event_id_of
    if served == "model":
        return StampingModelWorker(pipeline), expected
    if served == "flaky-model":
        return FlakyWorker(StampingModelWorker(pipeline)), expected
    ensemble = ensemble_from_spec("ewma,lof,rules,model:max",
                                  pipeline=pipeline,
                                  registry=MetricsRegistry())
    return StampingEnsembleWorker(ensemble), expected


@pytest.mark.parametrize("executor", ["sync", "process"])
@pytest.mark.parametrize("served", ["model", "ensemble", "day0-ensemble",
                                    "synthetic", "flaky-model"])
def test_records_are_admitted_through_the_workers_hook(
        served, executor, fitted_logsynergy, tmp_path):
    fitted_logsynergy.save_pipeline(tmp_path / "pipe")
    worker, hook = served_worker(served, tmp_path / "pipe")
    records = six_system_model_stream(lines=40)
    runtime = InferenceRuntime(worker, executor=executor, shards=2,
                               max_batch=4, registry=MetricsRegistry())
    try:
        for record in records:
            runtime.submit(record)
        reports = runtime.drain()
    finally:
        runtime.stop()

    expected: dict[str, list] = {}
    for record in records:
        message = record.message.strip()
        expected.setdefault(record.system, []).append(
            hook(record.system, message))
    assert reports
    for report in reports:
        system, index = report.metadata["window_id"].rsplit(":", 1)
        start = 5 * int(index)
        assert report.metadata["stamps"] == expected[system][start:start + 10]
    # Not vacuous: a parsing hook masks what it parses.
    masked = [mask for report in reports
              for _event, mask in report.metadata["stamps"]]
    if hook is message_event:
        assert set(masked) == {None}
    else:
        assert all(mask is not None for mask in masked)


class TestServing:
    def test_serving_is_the_model_workers_pipeline(self, fitted_logsynergy):
        from repro.detectors import ensemble_from_spec

        runtime = InferenceRuntime.from_model(fitted_logsynergy)
        assert runtime.serving is fitted_logsynergy
        ensemble = ensemble_from_spec("rules,model:max",
                                      pipeline=fitted_logsynergy,
                                      registry=MetricsRegistry())
        assert InferenceRuntime.from_ensemble(ensemble).serving is None
        assert InferenceRuntime(SyntheticWorker()).serving is None


def test_an_abandoned_shard_has_no_queue_and_keeps_accepting_records():
    from repro.testing.plan import FaultInjector, FaultPlan, FaultSpec

    records = multi_system_stream(systems=4, lines=60)
    plan = FaultPlan((
        FaultSpec("runtime.proc.spawn", "raise", start=0, count=3),
    ), seed=0)
    registry = MetricsRegistry()
    with FaultInjector(plan, registry=registry):
        runtime = InferenceRuntime(
            SyntheticWorker(threshold=0.5), executor="process", shards=2,
            max_batch=4, max_latency=None, registry=registry)
        try:
            runtime.start()
            fallback = runtime._process._slots[0].fallback
            assert fallback is not None
            for record in records:
                runtime.submit(record)
                assert runtime.queue_depths()[0] == 0
            # Shard 1 is live and still holds an unshipped tail.
            assert runtime.queue_depths()[1] > 0
            reports = runtime.drain()
        finally:
            runtime.stop()
    shard0 = {record.system for record in records
              if runtime.router.shard_of(record.system) == 0}
    lines = sum(1 for record in records if record.system in shard0)
    assert sum(fallback._window_index.values()) == \
        len(shard0) * ((lines // len(shard0) - 10) // 5 + 1)
    degraded = [report for report in reports
                if report.metadata.get("degraded")]
    assert degraded
    assert {report.system for report in degraded} == shard0
