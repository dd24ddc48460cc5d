"""Fault-point hooks and the plan/injector machinery."""

import pytest

from repro.obs import MetricsRegistry
from repro.testing import (
    DROPPED,
    FAULT_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_injector,
    fault_point,
    register_fault_point,
)


class TestUnarmedHook:
    def test_passes_value_through_untouched(self):
        sentinel = object()
        assert fault_point("runtime.worker.score") is None
        assert fault_point("runtime.worker.score", sentinel) is sentinel

    def test_unregistered_names_are_inert_when_unarmed(self):
        # The *linter* polices names statically; the hot path must not
        # pay for a registry lookup.
        assert fault_point("no.such.point", 42) == 42

    def test_no_active_injector_by_default(self):
        assert active_injector() is None


class TestRegistry:
    def test_known_points_cover_the_planted_modules(self):
        # The supervisor fires both worker points, for every worker.
        assert FAULT_POINTS["runtime.worker.score"] == \
            "repro/runtime/supervisor.py"
        assert FAULT_POINTS["runtime.worker.result"] == \
            "repro/runtime/supervisor.py"
        assert "runtime.supervisor.attempt" not in FAULT_POINTS
        assert FAULT_POINTS["core.trainer.loss"] == "repro/core/trainer.py"
        # Admission is one point for both executors, ahead of the split.
        assert FAULT_POINTS["runtime.admit"] == "repro/runtime/engine.py"

    def test_register_rejects_conflicting_module(self):
        register_fault_point("tests.extension.point", "repro/x.py")
        try:
            # Idempotent re-registration is fine...
            register_fault_point("tests.extension.point", "repro/x.py")
            # ...but silently moving a hook to another module is not.
            with pytest.raises(ValueError, match="already registered"):
                register_fault_point("tests.extension.point", "repro/y.py")
        finally:
            del FAULT_POINTS["tests.extension.point"]

    def test_register_rejects_empty(self):
        with pytest.raises(ValueError):
            register_fault_point("", "repro/x.py")


class TestFaultSpecValidation:
    def test_unknown_point(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("nope.nope", "raise")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("runtime.worker.score", "explode")

    def test_corrupt_requires_mutate(self):
        with pytest.raises(ValueError, match="mutate"):
            FaultSpec("runtime.worker.score", "corrupt")

    def test_timeout_requires_seconds(self):
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec("runtime.worker.score", "timeout")

    def test_bad_schedule_and_probability(self):
        with pytest.raises(ValueError):
            FaultSpec("runtime.worker.score", "raise", start=-1)
        with pytest.raises(ValueError):
            FaultSpec("runtime.worker.score", "raise", count=0)
        with pytest.raises(ValueError):
            FaultSpec("runtime.worker.score", "raise", probability=1.5)

    def test_plan_points(self):
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise"),
            FaultSpec("llm.cache.load", "drop"),
        ))
        assert plan.points() == {"runtime.worker.score", "llm.cache.load"}
        assert len(plan) == 2


class TestInjectorFiring:
    def test_positional_raise_schedule(self):
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "raise", start=1, count=2),
        ))
        with FaultInjector(plan) as injector:
            assert fault_point("runtime.worker.score", "a") == "a"  # call 0
            for _ in range(2):  # calls 1 and 2
                with pytest.raises(InjectedFault):
                    fault_point("runtime.worker.score")
            assert fault_point("runtime.worker.score", "b") == "b"  # call 3
        assert injector.total_fired == 2
        assert injector.fired_at("runtime.worker.score") == 2
        assert injector.calls_at("runtime.worker.score") == 4

    def test_corrupt_and_drop(self):
        plan = FaultPlan((
            FaultSpec("llm.cache.load", "corrupt", start=0, count=1,
                      mutate=str.upper),
            FaultSpec("runtime.admit", "drop", start=0, count=1),
        ))
        with FaultInjector(plan):
            assert fault_point("llm.cache.load", "abc") == "ABC"
            assert fault_point("llm.cache.load", "abc") == "abc"
            assert fault_point("runtime.admit", "x") is DROPPED
            assert fault_point("runtime.admit", "x") == "x"

    def test_timeout_skews_only_the_injector_clock(self):
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "timeout", seconds=30.0),
        ))
        base = lambda: 100.0
        injector = FaultInjector(plan, base_clock=base)
        assert injector.clock() == 100.0
        with injector:
            fault_point("runtime.worker.score")
        assert injector.clock() == 130.0
        assert base() == 100.0

    def test_unplanned_points_pass_through_while_armed(self):
        plan = FaultPlan((FaultSpec("runtime.worker.score", "raise"),))
        with FaultInjector(plan):
            assert fault_point("llm.cache.load", "kept") == "kept"

    def test_probabilistic_schedule_is_seed_deterministic(self):
        def firings(seed):
            plan = FaultPlan((
                FaultSpec("runtime.worker.score", "drop", probability=0.3),
            ), seed=seed)
            with FaultInjector(plan):
                return [fault_point("runtime.worker.score", i) is DROPPED
                        for i in range(50)]

        assert firings(5) == firings(5)
        assert firings(5) != firings(6)
        assert any(firings(5)) and not all(firings(5))

    def test_counts_mirrored_into_obs(self):
        registry = MetricsRegistry()
        plan = FaultPlan((
            FaultSpec("runtime.worker.score", "drop", start=0, count=3),
        ))
        with FaultInjector(plan, registry=registry):
            for i in range(5):
                fault_point("runtime.worker.score", i)
        assert registry.counter("testing.faults.fired").value == 3.0
        assert registry.counter(
            "testing.faults.fired.runtime.worker.score").value == 3.0


class TestArming:
    def test_context_restores_previous_injector(self):
        outer = FaultInjector(FaultPlan())
        inner = FaultInjector(FaultPlan())
        with outer:
            assert active_injector() is outer
            with inner:
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None

    def test_double_arm_rejected(self):
        injector = FaultInjector(FaultPlan())
        with injector:
            with pytest.raises(RuntimeError, match="already armed"):
                injector.__enter__()

    def test_disarmed_after_exception(self):
        plan = FaultPlan((FaultSpec("runtime.worker.score", "raise"),))
        with pytest.raises(InjectedFault):
            with FaultInjector(plan):
                fault_point("runtime.worker.score")
        assert active_injector() is None
        assert fault_point("runtime.worker.score", 1) == 1
