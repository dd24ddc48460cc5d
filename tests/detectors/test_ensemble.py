"""Combiner math: vote tie-break determinism, max monotonicity,
stacker refit determinism, warmup exclusion and error degradation."""

import numpy as np
import pytest

from repro.detectors import (
    Detector,
    DetectorError,
    Ensemble,
    LogisticStacker,
)
from repro.obs import MetricsRegistry

from .test_members import make_window


class FixedDetector(Detector):
    """Scripted member: returns queued scores (or raises on None)."""

    warmup_windows = 0

    def __init__(self, name, scores):
        self.name = name
        self._scores = list(scores)
        self.calls = 0

    def score_window(self, system, window):
        self.calls += 1
        score = self._scores.pop(0) if self._scores else 0.0
        if score is None:
            raise DetectorError(f"{self.name} scripted failure")
        return score


class WarmupDetector(FixedDetector):
    warmup_windows = 2


def ensemble_of(scripts, mode, **kwargs):
    members = [FixedDetector(name, scores) for name, scores in scripts]
    return Ensemble(members, mode=mode, registry=MetricsRegistry(), **kwargs)


WINDOW = make_window(["msg one", "msg two"])


class TestConstruction:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble([], registry=MetricsRegistry())
        with pytest.raises(ValueError, match="duplicate"):
            Ensemble([FixedDetector("a", []), FixedDetector("a", [])],
                     registry=MetricsRegistry())

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown ensemble mode"):
            Ensemble([FixedDetector("a", [])], mode="median",
                     registry=MetricsRegistry())


class TestVote:
    def test_fraction_of_live_members(self):
        ensemble = ensemble_of(
            [("a", [0.9]), ("b", [0.8]), ("c", [0.1])], "vote")
        assert ensemble.score_window("sys", WINDOW) == pytest.approx(2 / 3)

    def test_exact_tie_resolves_by_mean_score(self):
        # Two of four live members vote anomalous: the 0.5 fraction is
        # ambiguous against a 0.5 threshold, so the tie resolves by the
        # mean raw score — deterministically, never by member order.
        high = ensemble_of(
            [("a", [0.9]), ("b", [0.8]), ("c", [0.4]), ("d", [0.4])], "vote")
        low = ensemble_of(
            [("a", [0.6]), ("b", [0.6]), ("c", [0.1]), ("d", [0.1])], "vote")
        assert high.score_window("sys", WINDOW) == pytest.approx(0.625)
        assert low.score_window("sys", WINDOW) == pytest.approx(0.35)

    def test_tie_break_is_order_invariant(self):
        scripts = [("a", [0.9]), ("b", [0.1]), ("c", [0.8]), ("d", [0.2])]
        forward = ensemble_of(scripts, "vote").score_window("sys", WINDOW)
        reversed_ = ensemble_of(scripts[::-1], "vote").score_window("sys", WINDOW)
        assert forward == reversed_


class TestMax:
    def test_any_member_firing_fires_the_portfolio(self):
        ensemble = ensemble_of(
            [("a", [0.05]), ("b", [0.97]), ("c", [0.1])], "max")
        assert ensemble.score_window("sys", WINDOW) == pytest.approx(0.97)

    def test_monotone_in_every_member_score(self):
        base = [0.2, 0.5, 0.3]
        reference = ensemble_of(
            list(zip("abc", ([s] for s in base))), "max"
        ).score_window("sys", WINDOW)
        for index in range(3):
            raised = list(base)
            raised[index] += 0.3
            bumped = ensemble_of(
                list(zip("abc", ([s] for s in raised))), "max"
            ).score_window("sys", WINDOW)
            assert bumped >= reference

    def test_all_members_degraded_scores_zero(self):
        ensemble = ensemble_of([("a", [None]), ("b", [None])], "max")
        assert ensemble.score_window("sys", WINDOW) == 0.0


class TestDegradationAndWarmup:
    def test_degraded_member_is_excluded_and_counted(self):
        ensemble = ensemble_of([("a", [None, None]), ("b", [0.9, 0.8])], "max")
        assert ensemble.score_window("sys", WINDOW) == pytest.approx(0.9)
        assert ensemble.score_window("sys", WINDOW) == pytest.approx(0.8)
        assert ensemble.member_error_count("a") == 2
        assert ensemble.member_error_count("b") == 0
        assert ensemble.member_scored_count("b") == 2

    def test_warming_member_builds_state_but_is_excluded(self):
        members = [WarmupDetector("warm", [0.99, 0.99, 0.99]),
                   FixedDetector("live", [0.1, 0.1, 0.1])]
        ensemble = Ensemble(members, mode="max", registry=MetricsRegistry())
        first = ensemble.score_window("sys", WINDOW)
        second = ensemble.score_window("sys", WINDOW)
        third = ensemble.score_window("sys", WINDOW)
        # Two warmup windows consulted-but-excluded, then it votes.
        assert first == pytest.approx(0.1)
        assert second == pytest.approx(0.1)
        assert third == pytest.approx(0.99)
        assert members[0].calls == 3

    def test_warmup_is_per_system(self):
        members = [WarmupDetector("warm", [0.9] * 6)]
        ensemble = Ensemble(members, mode="max", registry=MetricsRegistry())
        ensemble.score_window("a", WINDOW)
        ensemble.score_window("a", WINDOW)
        assert ensemble.score_window("a", WINDOW) == pytest.approx(0.9)
        # A fresh system starts its own warmup from zero.
        assert ensemble.score_window("b", WINDOW) == 0.0


class BatchFailingDetector(Detector):
    """Batch member whose ``score_windows`` fails on scripted calls."""

    def __init__(self, name, failing_calls):
        self.name = name
        self.failing_calls = set(failing_calls)
        self.calls = 0

    def score_window(self, system, window):
        raise AssertionError("the ensemble consults members per batch")

    def score_windows(self, system, windows):
        self.calls += 1
        if self.calls in self.failing_calls:
            raise DetectorError(f"{self.name} batch failure")
        return [0.9] * len(windows)


def multi_system_windows(window=10, step=5, lines=240):
    """Per-system window lists over three generated dialects."""
    from repro.logs.generator import LogGenerator

    windows = {}
    for index, system in enumerate(("bgl", "spirit", "thunderbird")):
        records = LogGenerator(system, seed=40 + index).generate(lines)
        windows[system] = [records[start:start + window]
                           for start in range(0, lines - window + 1, step)]
    return windows


class TestBatchScoring:
    def test_batches_match_per_window_scoring(self):
        """``score_windows`` over batches of 16 gives the per-window
        scores and ``detectors.*`` counters exactly."""
        from repro.detectors import ensemble_from_spec

        windows = multi_system_windows()
        spec = "ewma,lof,rules:max"
        per_window_registry, batch_registry = MetricsRegistry(), MetricsRegistry()
        per_window = ensemble_from_spec(spec, registry=per_window_registry)
        batched = ensemble_from_spec(spec, registry=batch_registry)
        expected, got = [], []
        longest = max(len(system_windows) for system_windows in windows.values())
        # Systems interleave batch by batch, as runtime lanes do.
        for start in range(0, longest, 16):
            for system, system_windows in windows.items():
                batch = system_windows[start:start + 16]
                expected += [per_window.score_window(system, window)
                             for window in batch]
                got += batched.score_windows(system, batch)
        assert got == expected
        assert any(score > 0.5 for score in got)

        def counters(registry):
            return {name: metric.value
                    for name, metric in registry.metrics().items()
                    if name.startswith("detectors.")}

        assert counters(batch_registry) == counters(per_window_registry)
        assert batch_registry.counter("detectors.lof.warmups").value > 0

    def test_failing_batch_degrades_every_window_of_that_batch(self):
        registry = MetricsRegistry()
        failing = BatchFailingDetector("flaky", failing_calls={2})
        live = FixedDetector("live", [0.2] * 12)
        ensemble = Ensemble([failing, live], mode="max", registry=registry)
        first = ensemble.score_windows("sys", [WINDOW] * 4)
        second = ensemble.score_windows("sys", [WINDOW] * 5)
        third = ensemble.score_windows("sys", [WINDOW] * 3)
        assert first == pytest.approx([0.9] * 4)
        assert second == pytest.approx([0.2] * 5)  # only the live member
        assert third == pytest.approx([0.9] * 3)
        assert failing.calls == 3
        assert ensemble.member_error_count("flaky") == 5
        assert ensemble.member_scored_count("flaky") == 7
        assert ensemble.member_scored_count("live") == 12
        assert registry.counter("detectors.ensemble.member_errors").value == 5
        assert registry.counter("detectors.ensemble.windows").value == 12


class TestStacker:
    def _training_data(self, seed=0):
        rng = np.random.default_rng(seed)
        matrix = rng.random((64, 3))
        labels = (matrix.mean(axis=1) > 0.55).astype(np.float64)
        return matrix, labels

    def test_refit_is_byte_identical_under_fixed_seed(self):
        matrix, labels = self._training_data()
        first = LogisticStacker(3, seed=11)
        second = LogisticStacker(3, seed=11)
        first.fit(matrix, labels)
        second.fit(matrix, labels)
        assert first.weights.tobytes() == second.weights.tobytes()
        assert first.bias == second.bias

    def test_different_seed_differs(self):
        matrix, labels = self._training_data()
        a = LogisticStacker(3, seed=1)
        b = LogisticStacker(3, seed=2)
        a.fit(matrix, labels)
        b.fit(matrix, labels)
        assert a.weights.tobytes() != b.weights.tobytes()

    def test_predict_before_fit_raises(self):
        with pytest.raises(DetectorError):
            LogisticStacker(2).predict(np.array([0.5, 0.5]))

    def test_learns_a_separable_rule(self):
        matrix, labels = self._training_data()
        stacker = LogisticStacker(3, seed=0)
        stacker.fit(matrix, labels)
        predictions = [stacker.predict(row) > 0.5 for row in matrix]
        accuracy = np.mean(np.array(predictions) == labels.astype(bool))
        assert accuracy > 0.8

    def test_single_class_fit_is_refused(self):
        ensemble = ensemble_of([("a", [0.1] * 4)], "stacker")
        windows = [WINDOW] * 4
        with pytest.raises(ValueError, match="both classes"):
            ensemble.fit("sys", windows, [0, 0, 0, 0])

    def test_ensemble_fit_then_score(self):
        scripts = [("hot", [0.9, 0.9, 0.1, 0.1, 0.9, 0.1]),
                   ("cold", [0.8, 0.7, 0.2, 0.3, 0.85, 0.25])]
        ensemble = ensemble_of(scripts, "stacker")
        ensemble.fit("sys", [WINDOW] * 4, [1, 1, 0, 0])
        anomalous = ensemble.score_window("sys", WINDOW)
        normal = ensemble.score_window("sys", WINDOW)
        assert anomalous > normal


class TestCounters:
    def test_ensemble_rollups(self):
        registry = MetricsRegistry()
        members = [FixedDetector("a", [0.9, 0.2]), FixedDetector("b", [None, 0.1])]
        ensemble = Ensemble(members, mode="max", registry=registry)
        ensemble.score_window("sys", WINDOW)
        ensemble.score_window("sys", WINDOW)
        assert registry.counter("detectors.ensemble.windows").value == 2
        assert registry.counter("detectors.ensemble.anomalous").value == 1
        assert registry.counter("detectors.ensemble.member_errors").value == 1
        assert registry.counter("detectors.a.windows").value == 2
        assert registry.counter("detectors.a.anomalous").value == 1
        assert registry.counter("detectors.b.errors").value == 1
