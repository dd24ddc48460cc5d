"""The provider supervisor: bounded retries feeding a circuit breaker."""

import pytest

from repro.llm.middleware import ProviderSupervisor, pattern_fallback
from repro.llm.prompts import build_interpretation_prompt
from repro.llm.providers import FlakyLLM, LLMProvider, ProviderError
from repro.llm.simulated import SimulatedLLM, fallback_rewrite
from repro.obs import MetricsRegistry


class _Counting(LLMProvider):
    """Upstream stub: counts calls, optionally failing the first few."""

    def __init__(self, fail_first: int = 0, answer: str = "ok"):
        self.calls = 0
        self.fail_first = fail_first
        self.answer = answer

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.fail_first:
            raise ProviderError(f"down (call {self.calls})")
        return f"{self.answer}: {prompt}"


class _Clock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def _breaker(self, inner, clock, **kwargs):
        registry = MetricsRegistry()
        kwargs.setdefault("unhealthy_after", 2)
        kwargs.setdefault("cooldown", 30.0)
        # No retries: each prompt is one upstream attempt.
        return ProviderSupervisor(inner, max_retries=0, clock=clock,
                                  registry=registry, **kwargs), registry

    def test_opens_probes_and_closes_deterministically(self):
        inner, clock = _Counting(fail_first=3), _Clock()
        breaker, registry = self._breaker(inner, clock)

        # Two consecutive failures: degraded answers, breaker opens once.
        assert breaker.complete("p") == pattern_fallback("p")
        assert breaker.complete("p") == pattern_fallback("p")
        assert registry.counter("llm.provider.breaker.opened").value == 1.0

        # Open: upstream is not touched until the cooldown elapses.
        clock.now = 29.9
        breaker.complete("p")
        assert inner.calls == 2

        # Half-open probe fails -> still degraded, cooldown doubled.
        clock.now = 30.0
        assert breaker.complete("p") == pattern_fallback("p")
        assert inner.calls == 3
        clock.now = 89.9  # 30 + 2*30 = 90 is the next probe time
        breaker.complete("p")
        assert inner.calls == 3

        # Next probe succeeds -> closed, upstream answers again.
        clock.now = 90.0
        assert breaker.complete("p") == "ok: p"
        assert breaker.complete("p") == "ok: p"
        assert registry.counter("llm.provider.breaker.probes").value == 2.0
        assert registry.counter("llm.provider.breaker.closed").value == 1.0
        # Degraded: two opening failures, one while open, the failed
        # probe, and one more while waiting out the doubled cooldown.
        assert registry.counter("llm.provider.degraded").value == 5.0

    def test_success_resets_the_failure_streak(self):
        inner, clock = _Counting(), _Clock()
        breaker, registry = self._breaker(inner, clock)
        breaker.monitor.record_bad(clock())  # one failure, not enough
        breaker.complete("p")  # success resets the streak
        breaker.monitor.record_bad(clock())
        assert breaker.monitor.healthy

    def test_custom_fallback_and_batch_degradation(self):
        inner, clock = _Counting(fail_first=99), _Clock()
        breaker, registry = self._breaker(inner, clock)
        got = breaker.complete_batch(["a", "b", "c"])
        assert got == [pattern_fallback(p) for p in ("a", "b", "c")]
        assert inner.calls == 2  # opened after 2; third never went upstream
        assert registry.counter("llm.provider.degraded").value == 3.0

    def test_programming_errors_propagate(self):
        class Broken(LLMProvider):
            def complete(self, prompt: str) -> str:
                raise TypeError("not a transient fault")

        breaker, _ = self._breaker(Broken(), _Clock())
        with pytest.raises(TypeError):
            breaker.complete("p")
        assert breaker.monitor.healthy


class TestRetry:
    def _retrying(self, inner, **kwargs):
        registry = MetricsRegistry()
        return ProviderSupervisor(inner, breaker=False, registry=registry,
                                  **kwargs), registry

    def test_retries_within_budget_succeed(self):
        inner = _Counting(fail_first=2)
        retry, registry = self._retrying(inner, max_retries=2)
        assert retry.complete("p") == "ok: p"
        assert inner.calls == 3
        assert registry.counter("llm.provider.retries").value == 2.0

    def test_budget_exhaustion_raises_the_last_error(self):
        retry, _ = self._retrying(_Counting(fail_first=99), max_retries=2)
        with pytest.raises(ProviderError, match="call 3"):
            retry.complete("p")

    def test_only_provider_errors_are_retried(self):
        class Broken(LLMProvider):
            def __init__(self):
                self.calls = 0

            def complete(self, prompt: str) -> str:
                self.calls += 1
                raise ValueError("permanent")

        broken = Broken()
        retry, _ = self._retrying(broken, max_retries=5)
        with pytest.raises(ValueError):
            retry.complete("p")
        assert broken.calls == 1

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProviderSupervisor(_Counting(), max_retries=-1,
                               registry=MetricsRegistry())


class TestBuildProviderStack:
    """Retries and breaker composed in one supervisor."""

    def test_nests_in_contract_order(self):
        # Retries come first: failures the budget absorbs never reach
        # the breaker, so one bad prompt cannot open it.
        inner, registry = _Counting(fail_first=2), MetricsRegistry()
        supervisor = ProviderSupervisor(inner, max_retries=2,
                                        unhealthy_after=1, clock=_Clock(),
                                        registry=registry)
        assert supervisor.complete("p") == "ok: p"
        assert supervisor.monitor.healthy
        assert registry.counter("llm.provider.breaker.opened").value == 0.0
        # A prompt that exhausts the budget is one breaker failure.
        inner.fail_first = 99
        assert supervisor.complete("p") == pattern_fallback("p")
        assert inner.calls == 6
        assert registry.counter("llm.provider.breaker.opened").value == 1.0

    def test_switches_remove_tiers(self):
        inner = _Counting(fail_first=1)
        bare = ProviderSupervisor(inner, breaker=False, max_retries=0,
                                  registry=MetricsRegistry())
        assert bare.monitor is None
        with pytest.raises(ProviderError):
            bare.complete("p")
        assert bare.complete("p") == "ok: p"
        assert inner.calls == 2

    def test_probe_retries_within_its_budget(self):
        inner, clock = _Counting(fail_first=3), _Clock()
        registry = MetricsRegistry()
        supervisor = ProviderSupervisor(inner, max_retries=1,
                                        unhealthy_after=1, cooldown=10.0,
                                        clock=clock, registry=registry)
        assert supervisor.complete("p") == pattern_fallback("p")  # 2 calls
        assert not supervisor.monitor.healthy
        clock.now = 10.0
        # The probe fails once, then its retry succeeds.
        assert supervisor.complete("p") == "ok: p"
        assert inner.calls == 4
        assert supervisor.monitor.healthy
        assert registry.counter("llm.provider.breaker.probes").value == 1.0
        assert registry.counter("llm.provider.breaker.closed").value == 1.0
        assert registry.counter("llm.provider.retries").value == 2.0

    def test_full_stack_is_deterministic_and_transparent(self):
        prompt = build_interpretation_prompt(
            "bgl", "rts panic! - stopping execution, reason 1")
        bare = SimulatedLLM(seed=4).complete(prompt)
        supervisor = ProviderSupervisor(SimulatedLLM(seed=4), clock=_Clock(),
                                        registry=MetricsRegistry())
        assert supervisor.complete(prompt) == bare
        assert supervisor.complete(prompt) == bare

    def test_absorbs_a_flaky_upstream_byte_identically(self):
        prompt = build_interpretation_prompt(
            "bgl", "ciod: error reading message prefix after lostconnection")
        golden = SimulatedLLM(seed=2).complete(prompt)
        flaky = FlakyLLM(error_rate=0.6, seed=2)
        supervisor = ProviderSupervisor(flaky, max_retries=10, clock=_Clock(),
                                        registry=MetricsRegistry())
        assert supervisor.complete(prompt) == golden

    def test_a_pickled_stack_completes_like_the_original(self, tmp_path):
        """A shard process gets a pickled copy of the supervised
        provider, warm cache included: the copy answers exactly like the
        original."""
        import pickle

        from repro.llm.factory import resolve_provider

        prompts = [build_interpretation_prompt("bgl", line) for line in (
            "rts panic! - stopping execution, reason 1",
            "ciod: error reading message prefix after lostconnection")]
        original = resolve_provider(f"cached:path={tmp_path / 'cache.json'}")
        original.complete(prompts[0])  # a warm cache pickles too
        copy = pickle.loads(pickle.dumps(original))
        assert [copy.complete(p) for p in prompts] == \
            [original.complete(p) for p in prompts]
        assert copy.complete_batch(prompts) == original.complete_batch(prompts)

    def test_sustained_outage_degrades_to_pattern_fallback(self):
        from repro.llm.prompts import extract_log_from_prompt

        prompt = build_interpretation_prompt(
            "bgl", "rts panic! - stopping execution, reason 1")
        outage = FlakyLLM(error_rate=1.0, seed=0)
        registry = MetricsRegistry()
        supervisor = ProviderSupervisor(outage, max_retries=1,
                                        unhealthy_after=1, cooldown=1e9,
                                        clock=_Clock(), registry=registry)
        got = [supervisor.complete(prompt) for _ in range(5)]
        assert got == [fallback_rewrite(extract_log_from_prompt(prompt))] * 5
        assert registry.counter("llm.provider.breaker.opened").value == 1.0
        assert registry.counter("llm.provider.degraded").value == 5.0
