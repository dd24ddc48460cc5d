"""Worker supervision: retries, health transitions, probes, recovery."""

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import (
    FlakyWorker, SyntheticWorker, WorkerSupervisor, PendingWindow,
)
from repro.testing import FaultInjector, FaultPlan, FaultSpec

from .conftest import entry


def batch_of(count: int = 2) -> list[PendingWindow]:
    return [PendingWindow(system="svc", index=i, window=[entry(f"msg {i}")],
                          pattern=(i,)) for i in range(count)]


def make_supervisor(worker, clock, **kwargs):
    registry = MetricsRegistry(clock=clock)
    supervisor = WorkerSupervisor(worker, clock=clock, registry=registry,
                                  **kwargs)
    return supervisor, registry


class TestRetries:
    def test_transient_failure_is_retried(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=2)
        supervisor, registry = make_supervisor(
            worker, fake_clock, max_retries=2,
        )
        reports = supervisor.score_batch(batch_of())
        assert reports is not None and len(reports) == 2
        assert worker.calls == 3
        assert registry.counter("runtime.worker_retries").value == 2
        assert supervisor.healthy

    def test_exhausted_retries_return_degraded(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=10)
        supervisor, registry = make_supervisor(
            worker, fake_clock, max_retries=1, unhealthy_after=3,
        )
        assert supervisor.score_batch(batch_of()) is None
        assert supervisor.healthy  # one bad batch is not yet unhealthy
        assert registry.counter("runtime.worker_failures").value == 2

    def test_rejects_negative_max_retries(self, fake_clock):
        with pytest.raises(ValueError):
            WorkerSupervisor(SyntheticWorker(), clock=fake_clock,
                             max_retries=-1, registry=MetricsRegistry())


class TestHealthStateMachine:
    def test_consecutive_bad_batches_mark_unhealthy(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=100)
        supervisor, registry = make_supervisor(
            worker, fake_clock, max_retries=0, unhealthy_after=2, cooldown=1.0,
        )
        assert supervisor.score_batch(batch_of()) is None
        assert supervisor.healthy
        assert supervisor.score_batch(batch_of()) is None
        assert not supervisor.healthy
        assert registry.counter("runtime.unhealthy_transitions").value == 1

    def test_unhealthy_short_circuits_until_cooldown(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=2)
        supervisor, _registry = make_supervisor(
            worker, fake_clock, max_retries=0, unhealthy_after=2, cooldown=5.0,
        )
        supervisor.score_batch(batch_of())
        supervisor.score_batch(batch_of())
        assert not supervisor.healthy
        calls_before = worker.calls
        assert supervisor.score_batch(batch_of()) is None
        assert worker.calls == calls_before  # worker was never touched

    def test_probe_recovers_after_cooldown(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=2)
        supervisor, registry = make_supervisor(
            worker, fake_clock, max_retries=0, unhealthy_after=2, cooldown=5.0,
        )
        supervisor.score_batch(batch_of())
        supervisor.score_batch(batch_of())
        fake_clock.advance(5.0)
        reports = supervisor.score_batch(batch_of())
        assert reports is not None
        assert supervisor.healthy
        assert registry.counter("runtime.worker_recoveries").value == 1

    def test_failed_probe_backs_the_cooldown_off(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker(), failures=3)
        supervisor, _registry = make_supervisor(
            worker, fake_clock, max_retries=0, unhealthy_after=2, cooldown=1.0,
        )
        supervisor.score_batch(batch_of())
        supervisor.score_batch(batch_of())
        fake_clock.advance(1.0)
        assert supervisor.score_batch(batch_of()) is None  # probe fails
        fake_clock.advance(1.0)
        # Cooldown doubled: still inside the backed-off window.
        calls_before = worker.calls
        assert supervisor.score_batch(batch_of()) is None
        assert worker.calls == calls_before
        fake_clock.advance(1.0)  # now past the 2x cooldown
        assert supervisor.score_batch(batch_of()) is not None
        assert supervisor.healthy

    def test_force_unhealthy_degrades_immediately(self, fake_clock):
        supervisor, registry = make_supervisor(
            SyntheticWorker(), fake_clock, cooldown=10.0,
        )
        supervisor.force_unhealthy()
        assert not supervisor.healthy
        assert supervisor.score_batch(batch_of()) is None
        assert registry.counter("runtime.unhealthy_transitions").value == 1


class TestTimeoutAccounting:
    def test_slow_batches_keep_results_but_degrade_health(self, fake_clock):
        class SlowWorker:
            def __init__(self, clock):
                self.clock = clock
                self.inner = SyntheticWorker()

            def score_batch(self, batch):
                self.clock.advance(2.0)  # simulated slow inference
                return self.inner.score_batch(batch)

        supervisor, registry = make_supervisor(
            SlowWorker(fake_clock), fake_clock, timeout=1.0, unhealthy_after=2,
        )
        assert supervisor.score_batch(batch_of()) is not None  # late, not lost
        assert supervisor.healthy
        assert supervisor.score_batch(batch_of()) is not None
        assert not supervisor.healthy  # two overruns crossed the streak
        assert registry.counter("runtime.worker_timeouts").value == 2


class TestDroppedResults:
    def _drops(self, count):
        return FaultInjector(FaultPlan((
            FaultSpec("runtime.worker.result", "drop", start=0, count=count),
        )), registry=MetricsRegistry())

    def test_dropped_results_count_as_bad_batches(self, fake_clock):
        worker = FlakyWorker(SyntheticWorker())
        supervisor, registry = make_supervisor(
            worker, fake_clock, max_retries=3, unhealthy_after=2,
        )
        with self._drops(2):
            assert supervisor.score_batch(batch_of()) is None
            assert supervisor.healthy
            assert supervisor.score_batch(batch_of()) is None
        # Not retried, and the streak crossed: one transition.
        assert worker.calls == 2
        assert registry.counter("runtime.worker_retries").value == 0
        assert registry.counter("runtime.unhealthy_transitions").value == 1
        assert not supervisor.healthy

    def test_dropped_probe_result_backs_the_cooldown_off(self, fake_clock):
        supervisor, registry = make_supervisor(
            SyntheticWorker(), fake_clock, cooldown=1.0,
        )
        supervisor.force_unhealthy()
        fake_clock.advance(1.0)
        with self._drops(1):
            assert supervisor.score_batch(batch_of()) is None
        assert not supervisor.healthy
        assert registry.counter("runtime.worker_recoveries").value == 0
        fake_clock.advance(1.0)  # inside the doubled cooldown
        assert supervisor.score_batch(batch_of()) is None
        fake_clock.advance(1.0)
        assert supervisor.score_batch(batch_of()) is not None
        assert supervisor.healthy
