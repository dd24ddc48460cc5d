"""Crash-equivalence suite for the durable checkpoint store.

The headline property: ``fit(N)`` and ``fit(k) → crash → restore →
fit(N−k)`` produce byte-identical weights, RNG state and loss history
for *every* interruption point k — epoch boundaries and mid-epoch steps
alike.  The fault-injection half proves the durability discipline: a
crash mid-write leaves nothing behind, a torn write is caught by the
digest and quarantined, and the previous manifest entry always remains
a valid restart point.
"""

import json

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core.checkpoint import CheckpointStore
from repro.core.controller import StopAfter
from repro.core.model import LogSynergyModel
from repro.core.trainer import LogSynergyTrainer, TrainingBatch
from repro.obs import MetricsRegistry, use_registry
from repro.testing import FaultInjector, FaultPlan, FaultSpec, InjectedFault

_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
    embedding_dim=16, epochs=3, batch_size=32, learning_rate=1e-3,
)

# 96 samples / batch 32 = 3 optimizer steps per epoch.
_N = 96
_STEPS_PER_EPOCH = _N // _CONFIG.batch_size
_N_EPOCHS = 4
_TOTAL_STEPS = _N_EPOCHS * _STEPS_PER_EPOCH


def _toy_data(n=_N, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6, 16)).astype(np.float32)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    x[y == 1, :, :4] += 2.0
    systems = rng.integers(0, 2, size=n).astype(np.int64)
    domains = (systems == 1).astype(np.int64)
    return TrainingBatch(
        sequences=x, anomaly_labels=y, system_labels=systems,
        domain_labels=domains,
    )


def _make(seed=0):
    model = LogSynergyModel(_CONFIG, num_systems=2,
                            rng=np.random.default_rng(seed))
    return model, LogSynergyTrainer(model, _CONFIG)


def _weights(model):
    return {key: value.copy() for key, value in model.state_dict().items()}


def _assert_identical(model_a, trainer_a, model_b, trainer_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key
        assert state_a[key].tobytes() == state_b[key].tobytes(), key
    assert json.dumps(trainer_a._rng.bit_generator.state, sort_keys=True) \
        == json.dumps(trainer_b._rng.bit_generator.state, sort_keys=True)
    assert trainer_a.history.total == trainer_b.history.total


class TestResumeEquivalence:
    """fit(N) == fit(k) → checkpoint → restore → fit(N−k), for every k."""

    @pytest.fixture(scope="class")
    def reference(self):
        model, trainer = _make(seed=0)
        trainer.fit(_toy_data(), epochs=_N_EPOCHS)
        return model, trainer

    @pytest.mark.parametrize("k", range(1, _TOTAL_STEPS))
    def test_interrupt_at_every_step(self, k, reference):
        data = _toy_data()
        model, trainer = _make(seed=0)
        # PAUSE inside the full N-epoch plan: the alpha schedule spans
        # the same total, exactly as a real crash-and-resume would.
        trainer.fit(data, epochs=_N_EPOCHS,
                    controller=StopAfter(steps=k))
        assert trainer.global_step == k
        arrays, meta = trainer.checkpoint_state()

        # Restore into a *differently seeded* trainer: equivalence can
        # only hold if the checkpoint carries complete state.
        model_b, trainer_b = _make(seed=99)
        trainer_b.restore_checkpoint(arrays, meta)
        remaining = _N_EPOCHS - trainer_b.completed_epochs
        trainer_b.fit(data, epochs=remaining)

        ref_model, ref_trainer = reference
        assert trainer_b.global_step == ref_trainer.global_step
        _assert_identical(ref_model, ref_trainer, model_b, trainer_b)

    def test_epoch_boundary_roundtrip_through_store(self, tmp_path,
                                                    reference):
        data = _toy_data()
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, clock=lambda: 0.0)
            model, trainer = _make(seed=0)
            trainer.fit(data, epochs=_N_EPOCHS,
                        controller=StopAfter(epochs=2))
            store.save(*trainer.checkpoint_state())

            model_b, trainer_b = _make(seed=99)
            assert trainer_b.resume_from(store)
            assert trainer_b.completed_epochs == 2
            trainer_b.fit(data, epochs=_N_EPOCHS - 2)
        ref_model, ref_trainer = reference
        _assert_identical(ref_model, ref_trainer, model_b, trainer_b)

    def test_resume_from_empty_store_is_false(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, clock=lambda: 0.0)
            _, trainer = _make()
            assert not trainer.resume_from(store)

    def test_restore_rejects_topology_mismatch(self):
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=1)
        arrays, meta = trainer.checkpoint_state()
        meta = dict(meta, module_rngs=meta["module_rngs"][:-1])
        _, fresh = _make(seed=1)
        with pytest.raises(ValueError, match="topology mismatch"):
            fresh.restore_checkpoint(arrays, meta)

    def test_lr_travels_in_checkpoint(self):
        _, trainer = _make()
        trainer.optimizer.lr = 3e-4
        trainer.fit(_toy_data(), epochs=1)
        arrays, meta = trainer.checkpoint_state()
        assert meta["optimizers"]["opt"]["lr"] == pytest.approx(3e-4)
        _, fresh = _make(seed=5)
        fresh.restore_checkpoint(arrays, meta)
        assert fresh.optimizer.lr == pytest.approx(3e-4)


class TestStoreDurability:
    def _store(self, tmp_path, **kwargs):
        return CheckpointStore(tmp_path, clock=lambda: 0.0, **kwargs)

    def test_save_load_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
            meta = {"epoch": 2, "step": 7, "note": "x"}
            path = store.save(arrays, meta)
            assert path.exists()
            loaded_arrays, loaded_meta, entry = store.load_latest()
            assert np.array_equal(loaded_arrays["w"], arrays["w"])
            assert loaded_meta == meta
            assert entry.epoch == 2 and entry.step == 7
            assert registry.counter("trainer.checkpoint.saved").value == 1
            assert registry.counter("trainer.checkpoint.restored").value == 1

    def test_keep_prunes_old_files_but_manifest_first(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path, keep=2)
            for step in range(4):
                store.save({"w": np.array([step])}, {"epoch": 0, "step": step})
            entries = store.entries()
            assert [entry.step for entry in entries] == [2, 3]
            npz_files = sorted(p.name for p in tmp_path.glob("*.npz"))
            assert npz_files == ["checkpoint-000002.npz",
                                 "checkpoint-000003.npz"]

    def test_crash_mid_write_leaves_nothing_durable(self, tmp_path):
        """A `raise` fault before the write: no file, no manifest entry,
        and the previous checkpoint still restores."""
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            store.save({"w": np.array([1.0])}, {"epoch": 1, "step": 3})
            plan = FaultPlan(
                (FaultSpec("trainer.checkpoint.write", "raise"),), seed=0)
            with FaultInjector(plan, registry=registry) as injector:
                with pytest.raises(InjectedFault):
                    store.save({"w": np.array([2.0])}, {"epoch": 2, "step": 6})
            assert injector.total_fired == 1
            assert len(store.entries()) == 1
            arrays, meta, entry = store.load_latest()
            assert entry.step == 3
            assert np.array_equal(arrays["w"], np.array([1.0]))
            assert not list(tmp_path.glob("*.tmp"))

    def test_torn_write_quarantined_with_fallback(self, tmp_path):
        """A `corrupt` fault tears the bytes on disk; load detects the
        digest mismatch, quarantines the file and falls back."""
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            store.save({"w": np.array([1.0])}, {"epoch": 1, "step": 3})
            plan = FaultPlan((FaultSpec(
                "trainer.checkpoint.write", "corrupt",
                mutate=lambda payload: payload[:len(payload) // 2],
            ),), seed=0)
            with FaultInjector(plan, registry=registry):
                store.save({"w": np.array([2.0])}, {"epoch": 2, "step": 6})
            assert len(store.entries()) == 2

            arrays, meta, entry = store.load_latest()
            assert entry.step == 3
            assert np.array_equal(arrays["w"], np.array([1.0]))
            quarantined = list(tmp_path.glob("*.corrupt-*"))
            assert len(quarantined) == 1
            assert quarantined[0].name.startswith("checkpoint-000001.npz")
            assert registry.counter("trainer.checkpoint.quarantined").value == 1
            assert registry.counter("trainer.checkpoint.fallbacks").value == 1

    def test_truncated_file_on_disk_quarantined(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            path = store.save({"w": np.array([1.0])}, {"epoch": 0, "step": 1})
            path.write_bytes(path.read_bytes()[:10])
            assert store.load_latest() is None
            assert list(tmp_path.glob("*.corrupt-*"))

    def test_missing_file_skipped_without_quarantine(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            store.save({"w": np.array([1.0])}, {"epoch": 0, "step": 1})
            newer = store.save({"w": np.array([2.0])}, {"epoch": 0, "step": 2})
            newer.unlink()
            arrays, meta, entry = store.load_latest()
            assert entry.step == 1
            assert registry.counter("trainer.checkpoint.fallbacks").value == 1
            assert registry.counter("trainer.checkpoint.quarantined").value == 0

    def test_torn_manifest_starts_fresh(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            store.save({"w": np.array([1.0])}, {"epoch": 0, "step": 1})
            store.manifest_path.write_text("{not json", encoding="utf-8")
            assert store.entries() == []
            assert store.load_latest() is None
            # The orphan npz is never loaded (no digest to trust), but a
            # fresh save sequence works normally.
            store.save({"w": np.array([3.0])}, {"epoch": 1, "step": 9})
            arrays, _meta, entry = store.load_latest()
            assert entry.step == 9

    def test_quarantine_names_collide_safely(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = self._store(tmp_path)
            for _ in range(2):
                path = store.save({"w": np.array([1.0])},
                                  {"epoch": 0, "step": 1})
                path.write_bytes(b"garbage")
                store.load_latest()
            names = sorted(p.name for p in tmp_path.glob("*.corrupt-*"))
            assert len(names) == len(set(names)) == 2

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0, clock=lambda: 0.0)
