"""Shadow-gated onboarding: below-gate candidates never reach the
serving path; promotions hot-swap every executor flavor."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core import (
    CheckpointStore, LogSynergyModel, OnboardingSession, StopAfter,
)
from repro.core.onboard import FINE_TUNING, PROMOTED, REJECTED
from repro.core.pipeline import LogSynergy
from repro.logs.sequences import sliding_windows
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import InferenceRuntime
from repro.testing.fuzzer import LogStreamFuzzer

_CONFIG = LogSynergyConfig(
    d_model=16, num_heads=2, num_layers=1, d_ff=32, feature_dim=8,
    embedding_dim=16, epochs=2, batch_size=8, window=4, step=2,
    seed=0, use_lei=False,
)


def _day0_sequences(seed=0):
    fuzzer = LogStreamFuzzer(
        systems=("day0",), dialects={"day0": "bgl"},
        lines_per_system=160, anomaly_bursts=4, burst_length=(3, 6),
        parameter_noise=0.1,
    )
    stream = fuzzer.generate(seed)
    records = stream.by_system()["day0"]
    return records, sliding_windows(records, window=_CONFIG.window,
                                    step=_CONFIG.step)


def _warm_pipeline(seed=0):
    """A minimally fitted pipeline: model + target wiring, no training."""
    pipeline = LogSynergy(_CONFIG)
    pipeline.target_system = "day0"
    pipeline._system_index = {"source": 0, "day0": 1}
    pipeline.model = LogSynergyModel(
        _CONFIG, num_systems=2, rng=np.random.default_rng(seed))
    return pipeline


def _snapshot(model):
    return {key: value.copy() for key, value in model.state_dict().items()}


def _same_weights(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[key], b[key]) for key in a)


class TestValidation:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(ValueError, match="fitted"):
            OnboardingSession(LogSynergy(_CONFIG))

    def test_gate_and_holdout_bounds(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            with pytest.raises(ValueError, match="gate_f1"):
                OnboardingSession(pipeline, gate_f1=1.5)
            with pytest.raises(ValueError, match="holdout_fraction"):
                OnboardingSession(pipeline, holdout_fraction=1.0)

    def test_too_few_sequences(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            _, sequences = _day0_sequences()
            session = OnboardingSession(pipeline)
            with pytest.raises(ValueError, match="no training data"):
                session.run("day0", sequences[:1])


class TestShadowGate:
    def test_below_gate_never_touches_serving_weights(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            baseline = _snapshot(pipeline.model)
            _, sequences = _day0_sequences()
            runtime = InferenceRuntime.from_model(
                pipeline, window=_CONFIG.window, step=_CONFIG.step)
            session = OnboardingSession(pipeline, runtime=runtime,
                                        gate_f1=1.0)
            result = session.run("day0", sequences)

            assert result.state == REJECTED and not result.promoted
            assert result.shadow_f1 < 1.0
            assert _same_weights(baseline, pipeline.model.state_dict())
            assert registry.counter("runtime.weight_swaps").value == 0
            assert registry.counter("onboard.rejected").value == 1
            assert registry.counter("onboard.promoted").value == 0

    def test_promotion_swaps_sync_runtime(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            baseline = _snapshot(pipeline.model)
            records, sequences = _day0_sequences()
            runtime = InferenceRuntime.from_model(
                pipeline, shards=2, window=_CONFIG.window, step=_CONFIG.step)
            session = OnboardingSession(pipeline, runtime=runtime,
                                        gate_f1=0.0)
            result = session.run("day0", sequences)

            assert result.state == PROMOTED and result.promoted
            assert not _same_weights(baseline, pipeline.model.state_dict())
            assert registry.counter("runtime.weight_swaps").value == 1
            assert registry.counter("onboard.promoted").value == 1
            assert registry.gauge("onboard.shadow_f1").value == \
                pytest.approx(result.shadow_f1)
            # The swapped runtime still serves.
            for record in records[:40]:
                runtime.submit(record)
            runtime.stop()
            assert runtime.stats.windows_seen > 0

    def test_shadow_split_is_the_tail(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            _, sequences = _day0_sequences()
            session = OnboardingSession(pipeline, gate_f1=0.0,
                                        holdout_fraction=0.25)
            result = session.run("day0", sequences, epochs=1)
            assert result.holdout_sequences == max(
                1, int(round(len(sequences) * 0.25)))
            assert result.train_sequences + result.holdout_sequences \
                == len(sequences)

    def test_swap_without_runtime_updates_pipeline_only(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            baseline = _snapshot(pipeline.model)
            _, sequences = _day0_sequences()
            session = OnboardingSession(pipeline, gate_f1=0.0)
            result = session.run("day0", sequences, epochs=1)
            assert result.promoted
            assert not _same_weights(baseline, pipeline.model.state_dict())

    @staticmethod
    def _count_loads(monkeypatch, model):
        loads = []
        original = model.load_state_dict

        def counting(state):
            loads.append(1)
            return original(state)

        monkeypatch.setattr(model, "load_state_dict", counting)
        return loads

    def test_promotion_loads_the_served_pipeline_once(self, monkeypatch):
        """A runtime built over the session's own pipeline loads the
        promoted state itself; the session does not load it again."""
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            _, sequences = _day0_sequences()
            runtime = InferenceRuntime.from_model(
                pipeline, window=_CONFIG.window, step=_CONFIG.step)
            loads = self._count_loads(monkeypatch, pipeline.model)
            session = OnboardingSession(pipeline, runtime=runtime,
                                        gate_f1=0.0)
            result = session.run("day0", sequences, epochs=1)
            assert result.promoted
            assert len(loads) == 1
            assert registry.counter("runtime.weight_swaps").value == 1

    def test_promotion_reaches_a_runtime_over_another_pipeline(self, monkeypatch):
        """When the runtime serves a different pipeline object, both it
        and the session's pipeline end on the promoted weights."""
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            served = _warm_pipeline()
            baseline = _snapshot(served.model)
            _, sequences = _day0_sequences()
            runtime = InferenceRuntime.from_model(
                served, window=_CONFIG.window, step=_CONFIG.step)
            local_loads = self._count_loads(monkeypatch, pipeline.model)
            served_loads = self._count_loads(monkeypatch, served.model)
            session = OnboardingSession(pipeline, runtime=runtime,
                                        gate_f1=0.0)
            result = session.run("day0", sequences, epochs=1)
            assert result.promoted
            assert (len(local_loads), len(served_loads)) == (1, 1)
            assert not _same_weights(baseline, served.model.state_dict())
            assert _same_weights(pipeline.model.state_dict(),
                                 served.model.state_dict())

    def test_promotion_without_runtime_loads_once(self, monkeypatch):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            _, sequences = _day0_sequences()
            loads = self._count_loads(monkeypatch, pipeline.model)
            session = OnboardingSession(pipeline, gate_f1=0.0)
            assert session.run("day0", sequences, epochs=1).promoted
            assert len(loads) == 1


class TestExecutorVisibility:
    def test_promotion_rebroadcasts_to_process_executor(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            records, sequences = _day0_sequences()
            runtime = InferenceRuntime.from_model(
                pipeline, executor="process", shards=2,
                window=_CONFIG.window, step=_CONFIG.step)
            runtime.start()
            try:
                session = OnboardingSession(pipeline, runtime=runtime,
                                            gate_f1=0.0)
                result = session.run("day0", sequences, epochs=1)
                assert result.promoted
                assert registry.counter(
                    "runtime.weight_swaps").value == 1
                # Children score against the swapped weights.
                for record in records[:40]:
                    runtime.submit(record)
            finally:
                runtime.stop()
            assert registry.counter("onboard.promoted").value == 1


class TestResumableFineTune:
    def test_checkpointed_session_resumes(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            _, sequences = _day0_sequences()
            store = CheckpointStore(tmp_path / "ckpt", clock=lambda: 0.0)

            session = OnboardingSession(pipeline, gate_f1=0.0)
            first = session.run("day0", sequences, epochs=2, store=store,
                                controller=StopAfter(epochs=1))
            assert first.epochs == 1
            assert len(store.entries()) >= 1
            assert session.state in (PROMOTED, REJECTED, FINE_TUNING)

            resumed = session.run("day0", sequences, epochs=2, store=store,
                                  resume=True)
            assert resumed.epochs == 2

    def test_interrupted_session_never_promotes_serving(self, tmp_path):
        """StopAfter(STOP-free) pause mid-tune: the serving model still
        carries its original weights until a full run promotes."""
        registry = MetricsRegistry()
        with use_registry(registry):
            pipeline = _warm_pipeline()
            baseline = _snapshot(pipeline.model)
            _, sequences = _day0_sequences()
            store = CheckpointStore(tmp_path / "ckpt", clock=lambda: 0.0)
            session = OnboardingSession(pipeline, gate_f1=1.0)
            session.run("day0", sequences, epochs=2, store=store,
                        controller=StopAfter(epochs=1))
            assert _same_weights(baseline, pipeline.model.state_dict())
