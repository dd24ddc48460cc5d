"""Traffic-control middleware stack over LLM providers."""

import pytest

from repro.llm.middleware import (
    CircuitBreakerMiddleware,
    RetryMiddleware,
    build_provider_stack,
    pattern_fallback,
)
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
        return CircuitBreakerMiddleware(inner, clock=clock, registry=registry,
                                        **kwargs), registry

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
        assert breaker.last_error is None

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
    def test_retries_within_budget_succeed(self):
        inner = _Counting(fail_first=2)
        registry = MetricsRegistry()
        retry = RetryMiddleware(inner, max_retries=2, sleep=lambda s: None,
                                registry=registry)
        assert retry.complete("p") == "ok: p"
        assert inner.calls == 3
        assert registry.counter("llm.provider.retries").value == 2.0

    def test_budget_exhaustion_raises_the_last_error(self):
        retry = RetryMiddleware(_Counting(fail_first=99), max_retries=2,
                                registry=MetricsRegistry())
        with pytest.raises(ProviderError, match="call 3"):
            retry.complete("p")

    def test_backoff_is_jittered_exponential_and_capped(self):
        pauses = []
        retry = RetryMiddleware(
            _Counting(fail_first=99), max_retries=6, seed=0,
            sleep=pauses.append, registry=MetricsRegistry())
        with pytest.raises(ProviderError):
            retry.complete("p")
        assert len(pauses) == 6
        bases = [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]  # doubling, capped
        for pause, base in zip(pauses, bases):
            assert base <= pause <= base * 1.5

    def test_only_provider_errors_are_retried(self):
        class Broken(LLMProvider):
            def __init__(self):
                self.calls = 0

            def complete(self, prompt: str) -> str:
                self.calls += 1
                raise ValueError("permanent")

        broken = Broken()
        retry = RetryMiddleware(broken, max_retries=5,
                                registry=MetricsRegistry())
        with pytest.raises(ValueError):
            retry.complete("p")
        assert broken.calls == 1

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryMiddleware(_Counting(), max_retries=-1,
                            registry=MetricsRegistry())


class TestBuildProviderStack:
    def test_nests_in_contract_order(self):
        inner = _Counting()
        stack = build_provider_stack(inner, registry=MetricsRegistry())
        layers = []
        layer = stack
        while hasattr(layer, "inner"):
            layers.append(type(layer))
            layer = layer.inner
        assert layers == [CircuitBreakerMiddleware, RetryMiddleware]
        assert layer is inner

    def test_switches_remove_tiers(self):
        inner = _Counting()
        stack = build_provider_stack(inner, breaker=False,
                                     registry=MetricsRegistry())
        assert isinstance(stack, RetryMiddleware)
        assert stack.inner is inner
        assert build_provider_stack(inner, breaker=False, max_retries=0,
                                    registry=MetricsRegistry()) is inner

    def test_full_stack_is_deterministic_and_transparent(self):
        prompt = build_interpretation_prompt(
            "bgl", "rts panic! - stopping execution, reason 1")
        bare = SimulatedLLM(seed=4).complete(prompt)
        stack = build_provider_stack(SimulatedLLM(seed=4), clock=_Clock(),
                                     seed=4, registry=MetricsRegistry())
        assert stack.complete(prompt) == bare
        assert stack.complete(prompt) == bare

    def test_absorbs_a_flaky_upstream_byte_identically(self):
        prompt = build_interpretation_prompt(
            "bgl", "ciod: error reading message prefix after lostconnection")
        golden = SimulatedLLM(seed=2).complete(prompt)
        flaky = FlakyLLM(error_rate=0.6, seed=2)
        stack = build_provider_stack(flaky, max_retries=10, clock=_Clock(),
                                     seed=2, registry=MetricsRegistry())
        assert stack.complete(prompt) == golden

    def test_a_pickled_stack_completes_like_the_original(self, tmp_path):
        """A shard process gets a pickled copy of the provider stack, warm
        cache included: the copy answers exactly like the original."""
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
        stack = build_provider_stack(outage, unhealthy_after=1, cooldown=1e9,
                                     max_retries=1, clock=_Clock(),
                                     registry=registry)
        got = [stack.complete(prompt) for _ in range(5)]
        assert got == [fallback_rewrite(extract_log_from_prompt(prompt))] * 5
        assert registry.counter("llm.provider.breaker.opened").value == 1.0
        assert registry.counter("llm.provider.degraded").value == 5.0
