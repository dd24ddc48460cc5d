"""Counter/gauge/histogram semantics and registry behavior."""

import itertools

import pytest

from repro.obs import (
    DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry,
    NULL_REGISTRY, get_registry, use_registry,
)


def fake_clock(step: float = 1.0, start: float = 0.0):
    """Deterministic clock: start, start+step, start+2*step, ..."""
    ticks = itertools.count()
    return lambda: start + step * next(ticks)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="cannot inc"):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_edges(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        # buckets: <=1, <=2, <=4, overflow
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(106.0)
        assert histogram.min == 0.5
        assert histogram.max == 100.0
        assert histogram.mean == pytest.approx(21.2)

    def test_boundaries_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError, match="sorted and distinct"):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError, match="sorted and distinct"):
            Histogram("h", boundaries=(1.0, 1.0))

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0

    def test_timer_observes_elapsed_from_injected_clock(self):
        histogram = Histogram("h", boundaries=(1.0, 5.0), clock=fake_clock(step=2.0))
        with histogram.time():
            pass  # clock ticks: enter=0, exit=2 -> duration 2
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(2.0)
        assert histogram.bucket_counts == [0, 1, 0]


class TestMetricsRegistry:
    def test_handles_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.histogram("h").boundaries == DEFAULT_BUCKETS

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == 1.5
        assert snap["h"] == {"count": 1, "sum": 0.5, "mean": 0.5}


class TestActiveRegistry:
    def test_default_is_noop(self):
        registry = get_registry()
        assert registry.enabled is False
        registry.counter("anything").inc()
        assert registry.counter("anything").value == 0.0
        assert registry.metrics() == {}

    def test_use_registry_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_registry(registry) as installed:
            assert installed is registry
            assert get_registry() is registry
            get_registry().counter("seen").inc()
        assert get_registry() is NULL_REGISTRY
        assert registry.counter("seen").value == 1.0

    def test_nested_overrides_restore_in_order(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is NULL_REGISTRY

    def test_noop_timer_and_span_cost_nothing(self):
        registry = NULL_REGISTRY
        with registry.histogram("h").time():
            pass
        with registry.tracer.span("s", key=1) as span:
            span.set("k", "v")
        assert registry.tracer.roots == []
        assert registry.tracer.find("s") == []

    def test_a_metric_unpickles_into_the_active_registry(self):
        import pickle

        source, target = MetricsRegistry(), MetricsRegistry()
        counter = source.counter("c")
        counter.inc(2)
        histogram = source.histogram("h", boundaries=(1.0, 2.0))
        blob = pickle.dumps((counter, source.gauge("g"), histogram))
        with use_registry(target):
            copied = pickle.loads(blob)
        assert copied == (target.counter("c"), target.gauge("g"),
                          target.histogram("h"))
        assert copied[2].boundaries == (1.0, 2.0)
        # The copy records where the loading process reads, not into
        # the source registry.
        copied[0].inc()
        assert (counter.value, target.counter("c").value) == (2.0, 1.0)
