"""The shared ``--llm`` provider-spec grammar and factory."""

import pytest

from repro.llm import CachedLLM, FlakyLLM, SimulatedLLM
from repro.llm.factory import (
    DEFAULT_SPEC,
    default_provider,
    parse_provider_spec,
    provider_from_spec,
    resolve_provider,
)
from repro.llm.middleware import ProviderSupervisor


class TestSpecGrammar:
    def test_bare_name(self):
        assert parse_provider_spec("simulated") == ("simulated", {})

    def test_options_coerce_by_type(self):
        name, options = parse_provider_spec(
            "flaky:error_rate=0.1,seed=7,latency=0,verbose=true,"
            "note=hello,strict=false")
        assert name == "flaky"
        assert options == {"error_rate": 0.1, "seed": 7, "latency": 0,
                           "verbose": True, "note": "hello", "strict": False}
        assert isinstance(options["seed"], int)
        assert isinstance(options["error_rate"], float)

    def test_name_is_case_insensitive_and_stripped(self):
        assert parse_provider_spec("  Simulated  ")[0] == "simulated"

    def test_rejects_empty_spec(self):
        with pytest.raises(ValueError, match="empty provider spec"):
            parse_provider_spec("   ")

    def test_rejects_malformed_options(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_provider_spec("flaky:error_rate")
        with pytest.raises(ValueError, match="key=value"):
            parse_provider_spec("flaky:=0.1")


class TestProviderFromSpec:
    def test_simulated_gets_the_ambient_seed(self):
        provider = provider_from_spec("simulated", seed=9)
        assert isinstance(provider, SimulatedLLM)
        prompt = "Log line: rts panic! - stopping execution, reason 1"
        assert provider.complete(prompt) == SimulatedLLM(seed=9).complete(prompt)

    def test_explicit_seed_wins(self):
        provider = provider_from_spec("flaky:seed=3,error_rate=0.5", seed=9)
        assert provider.seed == 3

    def test_flaky_with_options(self):
        provider = provider_from_spec("flaky:error_rate=0.25,latency=0.01")
        assert isinstance(provider, FlakyLLM)
        assert provider.error_rate == 0.25
        assert provider.latency == 0.01
        assert isinstance(provider.inner, SimulatedLLM)

    def test_cached_requires_a_path(self, tmp_path):
        with pytest.raises(ValueError, match="requires a path"):
            provider_from_spec("cached")
        provider = provider_from_spec(
            f"cached:path={tmp_path / 'c.json'},hallucination_rate=0.5")
        assert isinstance(provider, CachedLLM)
        assert provider.inner.hallucination_rate == 0.5

    def test_unknown_provider_lists_known_names(self):
        with pytest.raises(ValueError, match="cached, flaky, simulated"):
            provider_from_spec("gpt7")

    def test_bad_option_name_becomes_a_value_error(self):
        with pytest.raises(ValueError, match="bad options"):
            provider_from_spec("flaky:warp_factor=9")


class TestResolveProvider:
    def test_default_spec_is_simulated_behind_the_stack(self):
        provider = resolve_provider(None, seed=5)
        assert isinstance(provider, ProviderSupervisor)
        assert DEFAULT_SPEC == "simulated"
        assert provider.complete("x") == default_provider(seed=5).complete("x")

    def test_middleware_can_be_disabled(self):
        provider = resolve_provider("simulated", middleware=False)
        assert isinstance(provider, SimulatedLLM)

    def test_cache_sits_under_the_middleware_stack(self, tmp_path):
        path = tmp_path / "cache.json"
        provider = resolve_provider(f"cached:path={path}")
        assert isinstance(provider, ProviderSupervisor)
        layer = provider
        while not isinstance(layer, CachedLLM):
            layer = layer.inner
        assert layer.path == path
        assert layer.autosave
        provider.complete("p")
        assert path.exists()

    def test_cached_spec_has_one_memoizing_layer_and_no_pickling_shim(
            self, tmp_path):
        from repro.llm.prompts import build_interpretation_prompt

        provider = resolve_provider(f"cached:path={tmp_path / 'cache.json'}")
        chain = [provider]
        while hasattr(chain[-1], "inner"):
            chain.append(chain[-1].inner)
        assert [type(layer) for layer in chain] == [
            ProviderSupervisor, CachedLLM, SimulatedLLM]
        # A repeated prompt is memoized by CachedLLM and nowhere above it.
        cache = chain[1]
        prompt = build_interpretation_prompt("bgl", "rts panic! - reason 1")
        assert provider.complete(prompt) == provider.complete(prompt)
        assert (cache.misses, cache.hits) == (1, 1)
        # Every layer pickles plainly: none overrides object.__getstate__.
        for layer in chain:
            assert not any("__getstate__" in vars(klass)
                           for klass in type(layer).__mro__
                           if klass is not object)
