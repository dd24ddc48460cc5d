"""HealthMonitor state machine (shared by supervisor and LLM breaker)."""

import pytest

from repro.runtime.health import HealthMonitor


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unhealthy_after"):
            HealthMonitor(unhealthy_after=0)
        with pytest.raises(ValueError, match="cooldown"):
            HealthMonitor(cooldown=-1.0)


class TestClosedState:
    def test_trips_after_consecutive_failures(self):
        monitor = HealthMonitor(unhealthy_after=3, cooldown=5.0)
        assert not monitor.record_bad(0.0)
        assert not monitor.record_bad(1.0)
        assert monitor.record_bad(2.0)  # the tripping failure, exactly once
        assert not monitor.healthy
        assert monitor.retry_at == 7.0

    def test_success_resets_the_streak(self):
        monitor = HealthMonitor(unhealthy_after=2)
        monitor.record_bad(0.0)
        monitor.record_good()
        assert not monitor.record_bad(1.0)
        assert monitor.healthy

    def test_force_unhealthy_reports_the_transition_once(self):
        monitor = HealthMonitor(cooldown=2.0)
        assert monitor.force_unhealthy(10.0)
        assert not monitor.force_unhealthy(20.0)  # already open
        assert monitor.retry_at == 22.0  # cooldown re-armed regardless

    def test_force_unhealthy_accepts_a_cooldown_override(self):
        monitor = HealthMonitor(cooldown=2.0)
        monitor.force_unhealthy(0.0, cooldown=100.0)
        assert monitor.retry_at == 100.0


class TestOpenState:
    def _open(self, cooldown=4.0):
        monitor = HealthMonitor(unhealthy_after=1, cooldown=cooldown)
        monitor.record_bad(0.0)
        return monitor

    def test_probe_gated_by_cooldown(self):
        monitor = self._open(cooldown=4.0)
        assert not monitor.ready_to_probe(3.9)
        assert monitor.ready_to_probe(4.0)

    def test_healthy_monitor_never_probes(self):
        assert not HealthMonitor().ready_to_probe(1e9)

    def test_probe_success_closes_and_resets(self):
        monitor = self._open()
        monitor.probe_failed(4.0)
        monitor.probe_succeeded()
        assert monitor.healthy
        assert monitor.bad_streak == 0
        assert monitor.probe_failures == 0

    def test_probe_failures_double_the_cooldown(self):
        monitor = self._open(cooldown=4.0)
        monitor.probe_failed(10.0)
        assert monitor.retry_at == 10.0 + 8.0  # 2x
        monitor.probe_failed(20.0)
        assert monitor.retry_at == 20.0 + 16.0  # 4x

    def test_probe_backoff_caps(self):
        monitor = self._open(cooldown=1.0)
        for attempt in range(10):
            monitor.probe_failed(float(attempt))
        # 2**10 >> BACKOFF_CAP: the multiplier pins at 16x.
        assert monitor.retry_at == 9.0 + 16.0
