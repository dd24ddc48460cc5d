"""CachedLLM tests."""

import json

import pytest

from repro.llm.cache import CachedLLM
from repro.llm.simulated import SimulatedLLM


class _Counting:
    def __init__(self, answer="the answer"):
        self.calls = 0
        self.answer = answer

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return f"{self.answer} #{self.calls}"


class TestCachedLLM:
    def test_second_call_hits_cache(self, tmp_path):
        inner = _Counting()
        cached = CachedLLM(inner, tmp_path / "cache.json")
        first = cached.complete("prompt A")
        second = cached.complete("prompt A")
        assert first == second
        assert inner.calls == 1
        assert cached.hits == 1 and cached.misses == 1

    def test_distinct_prompts_distinct_entries(self, tmp_path):
        cached = CachedLLM(_Counting(), tmp_path / "cache.json")
        cached.complete("prompt A")
        cached.complete("prompt B")
        assert len(cached) == 2

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        first = CachedLLM(_Counting(), path)
        answer = first.complete("stable prompt")

        fresh_inner = _Counting(answer="different")
        second = CachedLLM(fresh_inner, path)
        assert second.complete("stable prompt") == answer
        assert fresh_inner.calls == 0

    def test_manual_save_mode(self, tmp_path):
        path = tmp_path / "cache.json"
        cached = CachedLLM(_Counting(), path, autosave=False)
        cached.complete("prompt")
        assert not path.exists()
        cached.save()
        assert path.exists()

    def test_invalidate(self, tmp_path):
        inner = _Counting()
        cached = CachedLLM(inner, tmp_path / "cache.json")
        cached.complete("prompt")
        assert cached.invalidate("prompt")
        assert not cached.invalidate("prompt")
        cached.complete("prompt")
        assert inner.calls == 2

    def test_corrupt_cache_raises_without_quarantine(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            CachedLLM(_Counting(), path, quarantine=False)

    def test_truncated_cache_quarantined_and_regenerated(self, tmp_path):
        path = tmp_path / "cache.json"
        inner = _Counting()
        with CachedLLM(inner, path, autosave=False) as warm:
            warm.complete("prompt A")
            warm.complete("prompt B")
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])  # torn write, mid-byte

        reloaded = CachedLLM(inner, path, clock=lambda: 1234.5)
        assert len(reloaded) == 0
        quarantined = tmp_path / "cache.json.corrupt-1234"
        assert quarantined.exists()
        assert quarantined.read_bytes() == intact[: len(intact) // 2]
        assert not path.exists()  # moved aside, not copied
        # Entries regenerate on demand and persist again.
        reloaded.complete("prompt C")
        assert json.loads(path.read_text())

    def test_quarantine_counter_and_name_collision(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        path = tmp_path / "cache.json"
        registry = MetricsRegistry()
        with use_registry(registry):
            for _ in range(2):
                path.write_text("][ truncated")
                CachedLLM(_Counting(), path, clock=lambda: 99.0)
        assert registry.counter("llm.cache.quarantined").value == 2.0
        assert (tmp_path / "cache.json.corrupt-99").exists()
        assert (tmp_path / "cache.json.corrupt-99-1").exists()

    def test_non_dict_payload_quarantined(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        cached = CachedLLM(_Counting(), path, clock=lambda: 7.0)
        assert len(cached) == 0
        assert (tmp_path / "cache.json.corrupt-7").exists()

    def test_wraps_simulated_llm(self, tmp_path):
        from repro.llm.prompts import build_interpretation_prompt
        cached = CachedLLM(SimulatedLLM(), tmp_path / "cache.json")
        prompt = build_interpretation_prompt("bgl", "rts panic! - stopping execution, reason 1")
        assert "kernel" in cached.complete(prompt).lower()
        stored = json.loads((tmp_path / "cache.json").read_text())
        assert len(stored) == 1


class TestContextManager:
    def test_exit_saves(self, tmp_path):
        path = tmp_path / "cache.json"
        with CachedLLM(_Counting(), path, autosave=False) as cached:
            cached.complete("prompt")
            assert not path.exists()
        assert json.loads(path.read_text())

    def test_exit_saves_on_exception(self, tmp_path):
        path = tmp_path / "cache.json"
        with pytest.raises(RuntimeError):
            with CachedLLM(_Counting(), path, autosave=False) as cached:
                cached.complete("prompt")
                raise RuntimeError("fit blew up")
        assert json.loads(path.read_text())


class TestRegistryCounters:
    def test_hits_misses_invalidations_mirrored(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            cached = CachedLLM(_Counting(), tmp_path / "cache.json")
        cached.complete("A")
        cached.complete("A")
        cached.complete("B")
        cached.invalidate("B")
        assert registry.counter("llm.cache.hits").value == 1.0
        assert registry.counter("llm.cache.misses").value == 2.0
        # Mirrors the plain attributes.
        assert cached.hits == 1 and cached.misses == 2

    def test_noop_registry_by_default(self, tmp_path):
        cached = CachedLLM(_Counting(), tmp_path / "cache.json")
        cached.complete("A")
        cached.complete("A")
        assert cached.hits == 1 and cached.misses == 1  # attrs still work

    def test_invalidate_emits_canonical_counter_and_tracks_entries(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            cached = CachedLLM(_Counting(), tmp_path / "cache.json")
        cached.complete("A")
        cached.complete("B")
        assert registry.gauge("llm.cache.entries").value == 2.0
        assert cached.invalidate("A")
        assert registry.counter("llm.cache.invalidated").value == 1.0
        assert registry.gauge("llm.cache.entries").value == 1.0
        # A miss on a prompt that was never cached moves nothing.
        assert not cached.invalidate("A")
        assert registry.counter("llm.cache.invalidated").value == 1.0
        assert registry.gauge("llm.cache.entries").value == 1.0

    def test_invalidating_a_quarantine_regenerated_entry_settles_gauges(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        path = tmp_path / "cache.json"
        path.write_text("{torn write")
        registry = MetricsRegistry()
        with use_registry(registry):
            cached = CachedLLM(_Counting(), path, clock=lambda: 5.0)
        cached.complete("A")
        cached.complete("B")
        assert registry.gauge("llm.cache.regenerated_live").value == 2.0
        # The drift this fixes: dropping a regenerated entry used to leave
        # it counted as live forever.
        assert cached.invalidate("A")
        assert registry.gauge("llm.cache.regenerated_live").value == 1.0
        assert registry.gauge("llm.cache.entries").value == 1.0
        assert registry.counter("llm.cache.invalidated").value == 1.0
        # Regenerating it again re-counts it exactly once.
        cached.complete("A")
        assert registry.gauge("llm.cache.regenerated_live").value == 2.0
