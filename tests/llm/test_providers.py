"""LLMProvider contract, package attribute lookup, and FlakyLLM."""

import pytest

from repro.llm import FlakyLLM, LLMProvider, ProviderError, garble
from repro.llm.prompts import build_interpretation_prompt
from repro.llm.simulated import SimulatedLLM

PROMPT = build_interpretation_prompt(
    "bgl", "rts panic! - stopping execution, reason 1")


class _Echo(LLMProvider):
    def complete(self, prompt: str) -> str:
        return f"echo: {prompt}"


class TestProviderContract:
    def test_complete_batch_default_loops_in_order(self):
        assert _Echo().complete_batch(["a", "b"]) == ["echo: a", "echo: b"]

    def test_isinstance_stays_structural(self):
        class DuckTyped:
            def complete(self, prompt: str) -> str:
                return prompt

        assert isinstance(DuckTyped(), LLMProvider)
        assert issubclass(DuckTyped, LLMProvider)
        assert not isinstance(object(), LLMProvider)

    def test_concrete_providers_are_providers(self):
        from repro.llm import CachedLLM
        from repro.llm.middleware import ProviderMiddleware

        for cls in (SimulatedLLM, FlakyLLM, CachedLLM, ProviderMiddleware):
            assert issubclass(cls, LLMProvider)

    def test_abstract_without_complete(self):
        with pytest.raises(TypeError):
            LLMProvider()


class TestDeprecatedAlias:
    """The package has no module ``__getattr__``: unknown names raise."""

    def test_unknown_attribute_still_raises(self):
        import repro.llm

        with pytest.raises(AttributeError):
            repro.llm.NoSuchThing


class TestFlakyLLM:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="error_rate"):
            FlakyLLM(error_rate=1.5)
        with pytest.raises(ValueError, match="hallucination_rate"):
            FlakyLLM(hallucination_rate=-0.1)
        with pytest.raises(ValueError, match="latency"):
            FlakyLLM(latency=-1.0)

    def test_fault_free_matches_inner_provider(self):
        assert FlakyLLM(seed=5).complete(PROMPT) == \
            SimulatedLLM(seed=5).complete(PROMPT)

    def test_error_sequence_is_seed_deterministic(self):
        def run():
            flaky = FlakyLLM(error_rate=0.5, seed=3)
            outcomes = []
            for _ in range(20):
                try:
                    outcomes.append(flaky.complete(PROMPT))
                except ProviderError:
                    outcomes.append("<error>")
            return outcomes, flaky.errors

        first, second = run(), run()
        assert first == second
        assert 0 < first[1] < 20

    def test_error_draws_do_not_consume_inner_rng(self):
        # The property the retry invariant pins down: a prompt that
        # failed upstream completes byte-identically once retried.
        golden = SimulatedLLM(seed=0).complete(PROMPT)
        flaky = FlakyLLM(error_rate=0.99, seed=0)
        for _ in range(500):
            try:
                assert flaky.complete(PROMPT) == golden
            except ProviderError:
                continue
        assert flaky.errors > 0
        assert flaky.calls - flaky.errors > 0

    def test_latency_uses_injected_sleep(self):
        pauses = []
        flaky = FlakyLLM(latency=0.5, jitter=0.25, seed=1, sleep=pauses.append)
        flaky.complete(PROMPT)
        flaky.complete(PROMPT)
        assert len(pauses) == 2
        assert all(0.5 <= pause <= 0.75 for pause in pauses)
        assert flaky.slept == pytest.approx(sum(pauses))

    def test_hallucination_garbles_the_completion(self):
        flaky = FlakyLLM(hallucination_rate=1.0, seed=0)
        assert flaky.complete(PROMPT) == garble(
            SimulatedLLM(seed=0).complete(PROMPT))

    def test_garble_breaks_format_review(self):
        from repro.llm.interpreter import review_interpretation

        assert review_interpretation(garble("Event: kernel panic."))
        assert not review_interpretation("Event: kernel panic.")
