"""Online service behaviour under buffer overflow and empty input."""

import pytest

from repro.deploy import OnlineService
from repro.logs.generator import LogGenerator
from repro.obs import MetricsRegistry
from repro.runtime import (
    OFFER_DROPPED, InferenceRuntime, RuntimeStats, SyntheticWorker,
    message_pattern,
)
from repro.runtime.queues import BACKPRESSURE_POLICIES


def _runtime(**kwargs) -> InferenceRuntime:
    return InferenceRuntime(lambda index: SyntheticWorker(),
                            pattern_fn=message_pattern, **kwargs)


class TestOverflow:
    def test_tiny_buffer_drops_but_survives(self, fitted_logsynergy):
        service = OnlineService(fitted_logsynergy, buffer_capacity=50)
        stream = LogGenerator("thunderbird", seed=31).generate(500)
        service.process(stream)
        assert service.runtime.stats.records_rejected == 450
        # Whatever got through still forms windows and is judged.
        assert service.stats.windows_seen >= 1

    def test_empty_batch_is_noop(self, fitted_logsynergy):
        service = OnlineService(fitted_logsynergy)
        assert service.process([]) == []
        assert service.stats.windows_seen == 0


class TestOverflowPolicies:
    def test_policy_registry_is_complete(self):
        assert BACKPRESSURE_POLICIES == ("block", "reject", "drop-oldest")

    def test_reject_counts_through_the_registry(self, fitted_logsynergy):
        registry = MetricsRegistry()
        service = OnlineService(fitted_logsynergy, buffer_capacity=2,
                                registry=registry)
        service.process(LogGenerator("thunderbird", seed=31).generate(3))
        assert registry.counter("service.records_rejected").value == 1
        assert len(service.runtime.queues[0]) == 0  # the two admitted drained

    def test_drop_oldest_evicts_the_head_and_counts(self):
        registry = MetricsRegistry()
        runtime = _runtime(queue_capacity=2, backpressure="drop-oldest",
                           registry=registry)
        records = LogGenerator("thunderbird", seed=31).generate(3)
        runtime.submit(records[0])
        runtime.submit(records[1])
        # Admitted: the cost falls on the oldest record.
        assert runtime.submit(records[2]) == OFFER_DROPPED
        assert runtime.stats.records_dropped == 1
        assert runtime.stats.records_rejected == 0
        assert registry.counter("runtime.records_dropped").value == 1
        queued = [record for _seq, record in runtime.queues[0].poll(10)]
        assert queued == records[1:]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown backpressure policy"):
            _runtime(backpressure="spill")


class TestServiceStats:
    def test_skip_rate_is_zero_before_any_window(self):
        stats = RuntimeStats(MetricsRegistry(), "service")
        assert stats.windows_seen == 0
        assert stats.model_skip_rate == 0.0  # no ZeroDivisionError

    def test_skip_rate_reflects_library_absorption(self):
        registry = MetricsRegistry()
        stats = RuntimeStats(registry, "service")
        registry.counter("service.windows_seen").inc(10)
        registry.counter("service.model_invocations").inc(4)
        assert stats.model_skip_rate == pytest.approx(0.6)


class TestEmptyPrediction:
    def test_pipeline_predict_empty(self, fitted_logsynergy):
        assert fitted_logsynergy.predict([]).shape == (0,)
        assert fitted_logsynergy.predict_proba([]).shape == (0,)
