"""Deployment stage tests: the §VI-A collection, buffering and
formatting stages as the online service runs them on the inference
runtime, plus the pattern library and alerts."""

import dataclasses

import pytest

from repro.core.report import build_report
from repro.deploy import AlertRouter, EmailSink, OnlineService, PatternLibrary, SmsSink
from repro.detectors import ensemble_from_spec
from repro.logs import generate_logs
from repro.obs import MetricsRegistry
from repro.runtime import (
    InferenceRuntime, SyntheticWorker, message_pattern, normalize_record,
)


def _service(capacity: int) -> OnlineService:
    """A day-0 service (no trained model): cheap, and ungated, so every
    admitted window counts."""
    registry = MetricsRegistry()
    return OnlineService(
        None, buffer_capacity=capacity, registry=registry,
        ensemble=ensemble_from_spec("rules:max", registry=registry))


def _runtime(**kwargs) -> InferenceRuntime:
    return InferenceRuntime(lambda index: SyntheticWorker(),
                            pattern_fn=message_pattern,
                            registry=MetricsRegistry(), **kwargs)


class TestBoundedBuffer:
    """Buffering: the runtime's bounded shard queue under ``reject``."""

    def test_fifo(self):
        service = _service(10)
        records = generate_logs("bgl", 5, seed=0)
        for record in records:
            service.runtime.submit(record)
        buffer = service.runtime.queues[0]
        assert [record for _seq, record in buffer.poll(3)] == records[:3]
        assert [record for _seq, record in buffer.poll(10)] == records[3:]

    def test_rejects_when_full(self):
        service = _service(2)
        service.process(generate_logs("bgl", 3, seed=0))
        assert service.stats.records_rejected == 1
        assert service.runtime.queues[0].total_offered == 3

    def test_drain(self):
        service = _service(5)
        service.process(generate_logs("bgl", 3, seed=0))
        assert len(service.runtime.queues[0]) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            _service(0)

    def test_invalid_poll(self):
        with pytest.raises(ValueError):
            _service(5).runtime.queues[0].poll(0)


class TestCollector:
    """Collection: ``process`` ships every record into the buffer."""

    def test_ships_and_counts(self):
        service = _service(100)
        service.process(generate_logs("bgl", 30, seed=0))
        assert service.stats.records_rejected == 0
        assert service.stats.windows_seen == 5  # offsets 0, 5, ..., 20

    def test_drops_on_backpressure(self):
        service = _service(10)
        service.process(generate_logs("bgl", 30, seed=0))
        assert service.stats.records_rejected == 20
        assert service.stats.windows_seen == 1  # the 10 admitted records


class TestFormatter:
    """Formatting: records are normalized and windowed per shard."""

    def test_windows_emitted(self):
        runtime = _runtime(window=10, step=5)
        for record in generate_logs("bgl", 25, seed=0):
            runtime.submit(record)
        runtime.drain()
        # Offsets 0, 5, 10 and 15 all complete with 25 records.
        assert runtime.stats.windows_seen == 4

    def test_incremental_pumping(self):
        runtime = _runtime(window=10, step=5)
        records = generate_logs("bgl", 40, seed=0)
        for record in records[:8]:
            runtime.submit(record)
        runtime.pump()
        assert runtime.stats.windows_seen == 0  # not enough yet
        for record in records[8:]:
            runtime.submit(record)
        runtime.pump()
        assert runtime.stats.windows_seen == 7

    def test_normalization(self):
        record = generate_logs("spirit", 1, seed=0)[0]
        padded = dataclasses.replace(record, message=f"  {record.message}\n")
        entry = normalize_record(padded)
        assert entry.system == "spirit"
        assert entry.host == record.host
        assert entry.timestamp == record.timestamp
        assert entry.message == record.message.strip()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            _runtime(window=0)


class TestPatternLibrary:
    def test_miss_then_hit(self):
        library = PatternLibrary()
        pattern = (1, 2, 3)
        assert library.lookup(pattern) is None
        library.remember(pattern, True)
        assert library.lookup(pattern) is True
        assert library.stats.hits == 1
        assert library.stats.misses == 1
        assert library.stats.hit_rate == 0.5

    def test_capacity_cap(self):
        library = PatternLibrary(max_patterns=2)
        library.remember((1,), False)
        library.remember((2,), False)
        library.remember((3,), True)  # over cap: ignored
        assert len(library) == 2
        assert library.lookup((3,)) is None

    def test_update_existing_under_cap(self):
        library = PatternLibrary(max_patterns=1)
        library.remember((1,), False)
        library.remember((1,), True)  # update allowed
        assert library.lookup((1,)) is True

    def test_known_anomalous_count(self):
        library = PatternLibrary()
        library.remember((1,), True)
        library.remember((2,), False)
        assert library.known_anomalous_patterns() == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PatternLibrary(max_patterns=0)


class TestAlerting:
    def _report(self):
        return build_report("system_a", 0.97, 0.5, ["msg one"], ["Interpretation."])

    def test_sms_truncated(self):
        sink = SmsSink()
        sink.deliver(self._report())
        assert len(sink.delivered) == 1
        assert len(sink.delivered[0]) <= SmsSink.MAX_LENGTH

    def test_email_full_body(self):
        sink = EmailSink()
        sink.deliver(self._report())
        assert "msg one" in sink.delivered[0]
        assert "Interpretation." in sink.delivered[0]

    def test_router_fans_out(self):
        sms, email = SmsSink(), EmailSink()
        router = AlertRouter([sms])
        router.add_sink(email)
        delivered = router.route(self._report())
        assert delivered == 2
        assert router.routed == 1
        assert len(sms.delivered) == len(email.delivered) == 1
