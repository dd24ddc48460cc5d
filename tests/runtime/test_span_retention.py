"""Spans are kept only where something can read them: a runtime with
observability off keeps no flush spans, and a shard process keeps none
of the spans its worker opens."""

import dataclasses

import pytest

from repro.logs.generator import LogGenerator
from repro.obs import get_registry, trace
from repro.runtime import InferenceRuntime, SyntheticWorker


class SpanProbeWorker(SyntheticWorker):
    """Opens one span per batch and stamps each report with how many
    such spans the scoring process has retained.  Module level, so
    shard processes can unpickle it."""

    def score_batch(self, batch):
        with trace("probe.batch"):
            reports = super().score_batch(batch)
        retained = len(get_registry().find_spans("probe.batch"))
        for report in reports:
            report.metadata["retained"] = retained
        return reports


def novel_records(count: int) -> list:
    """``count`` records with distinct messages, so (nearly) every
    window is a new pattern and goes to the worker."""
    records = LogGenerator("thunderbird", seed=5).generate(count)
    return [dataclasses.replace(record, message=f"{record.message} #{index}")
            for index, record in enumerate(records)]


@pytest.mark.parametrize("executor", ["sync", "process"])
def test_retention_stays_bounded_with_observability_off(executor):
    assert not get_registry().enabled
    runtime = InferenceRuntime(SpanProbeWorker(), executor=executor,
                               max_batch=4)
    try:
        for record in novel_records(2000):
            runtime.submit(record)
        reports = runtime.drain()
    finally:
        runtime.stop()
    assert runtime.stats.batches > 90
    assert len(reports) > 100
    assert {report.metadata["retained"] for report in reports} == {0}
    assert runtime.registry.find_spans("runtime.flush") == []
