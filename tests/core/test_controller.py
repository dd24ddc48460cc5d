"""Training-controller contract: hook ordering, pause/stop semantics,
composition, and the failure path that must never clobber the last good
checkpoint."""

import numpy as np
import pytest

from repro.config import LogSynergyConfig
from repro.core.checkpoint import CheckpointStore
from repro.core.controller import (
    CONTINUE, PAUSE, STOP,
    CheckpointEvery, ComposedController, ControllerError,
    StopAfter, TrainingController, compose,
)
from repro.core.model import LogSynergyModel
from repro.core.trainer import LogSynergyTrainer, TrainingBatch
from repro.obs import MetricsRegistry, use_registry

_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=1, d_ff=64, feature_dim=16,
    embedding_dim=16, epochs=3, batch_size=32, learning_rate=1e-3,
)
_STEPS_PER_EPOCH = 3  # 96 samples / batch 32


def _toy_data(n=96, seed=0):
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


class _Recorder(TrainingController):
    """Records every hook invocation in order."""

    def __init__(self):
        self.events = []

    def on_fit_start(self, trainer):
        self.events.append(("fit_start",))

    def on_epoch_start(self, trainer, epoch):
        self.events.append(("epoch_start", epoch))

    def on_step(self, trainer, step):
        self.events.append(("step", step))

    def on_epoch_end(self, trainer, epoch, metrics):
        self.events.append(("epoch_end", epoch, sorted(metrics)))

    def on_fit_end(self, trainer, history):
        self.events.append(("fit_end",))


class _RaiseAt(TrainingController):
    def __init__(self, step):
        self.step = step

    def on_step(self, trainer, step):
        if step >= self.step:
            raise RuntimeError("hook exploded")
        return None


class TestHookOrdering:
    def test_full_run_event_sequence(self):
        recorder = _Recorder()
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=2, controller=recorder)
        expected = [("fit_start",)]
        step = 0
        for epoch in range(2):
            expected.append(("epoch_start", epoch))
            for _ in range(_STEPS_PER_EPOCH):
                step += 1
                expected.append(("step", step))
            expected.append(
                ("epoch_end", epoch,
                 sorted(["total", "anomaly", "system", "mi", "da"])))
        expected.append(("fit_end",))
        assert recorder.events == expected

    def test_none_controller_is_a_noop(self):
        _, trainer = _make()
        history = trainer.fit(_toy_data(), epochs=1, controller=None)
        assert len(history.total) == 1


class TestPauseAndStop:
    def test_pause_keeps_midepoch_state(self):
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=2, controller=StopAfter(steps=2))
        assert trainer.global_step == 2
        assert trainer.completed_epochs == 0
        assert trainer._epoch_state is not None
        assert trainer._epoch_state["position"] == 2 * _CONFIG.batch_size

    def test_stop_discards_midepoch_state(self):
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=2,
                    controller=StopAfter(steps=2, action=STOP))
        assert trainer.global_step == 2
        assert trainer._epoch_state is None

    def test_pause_then_resume_continues_exactly(self):
        data = _toy_data()
        _, reference = _make()
        reference.fit(data, epochs=2)

        _, trainer = _make()
        trainer.fit(data, epochs=2, controller=StopAfter(steps=2))
        trainer.fit(data, epochs=2 - trainer.completed_epochs)
        assert trainer.global_step == reference.global_step
        assert trainer.history.total == reference.history.total

    def test_stop_at_epoch_boundary(self):
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=3,
                    controller=StopAfter(epochs=1, action=STOP))
        assert trainer.completed_epochs == 1
        assert len(trainer.history.total) == 1

    def test_stop_after_validates_action(self):
        with pytest.raises(ValueError, match="pause|stop"):
            StopAfter(steps=1, action=CONTINUE)


class TestComposition:
    def test_strongest_action_wins(self):
        class _Fixed(TrainingController):
            def __init__(self, action):
                self.action = action

            def on_step(self, trainer, step):
                return self.action

        composed = ComposedController(
            [_Fixed(None), _Fixed(PAUSE), _Fixed(CONTINUE)])
        assert composed.on_step(None, 1) == PAUSE
        composed = ComposedController([_Fixed(STOP), _Fixed(PAUSE)])
        assert composed.on_step(None, 1) == STOP
        composed = ComposedController([_Fixed(None), _Fixed(None)])
        assert composed.on_step(None, 1) is None

    def test_every_child_runs_even_after_a_halt_vote(self):
        recorder = _Recorder()
        composed = ComposedController(
            [StopAfter(steps=1), recorder])
        _, trainer = _make()
        trainer.fit(_toy_data(), epochs=1, controller=composed)
        # The recorder (listed after the halting child) still saw the step.
        assert ("step", 1) in recorder.events

    def test_compose_collapses(self):
        assert compose([]) is None
        assert compose([None, None]) is None
        sole = _Recorder()
        assert compose([None, sole]) is sole
        assert isinstance(compose([_Recorder(), _Recorder()]),
                          ComposedController)


class TestCheckpointEvery:
    def test_epoch_cadence(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, keep=10, clock=lambda: 0.0)
            _, trainer = _make()
            trainer.fit(_toy_data(), epochs=3,
                        controller=CheckpointEvery(store, epochs=1))
            entries = store.entries()
            assert [entry.epoch for entry in entries] == [1, 2, 3]

    def test_step_cadence_captures_midepoch(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, keep=20, clock=lambda: 0.0)
            _, trainer = _make()
            trainer.fit(_toy_data(), epochs=1,
                        controller=CheckpointEvery(store, epochs=None,
                                                   steps=2))
            entries = store.entries()
            assert [entry.step for entry in entries] == [2]
            arrays, meta, _entry = store.load_latest()
            assert meta["epoch_state"] is not None
            assert "order" in arrays

    def test_cadence_validation(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, clock=lambda: 0.0)
            with pytest.raises(ValueError):
                CheckpointEvery(store, epochs=0)
            with pytest.raises(ValueError):
                CheckpointEvery(store, steps=0)


class TestFailurePath:
    def test_exception_marks_run_failed(self):
        _, trainer = _make()
        with pytest.raises(ControllerError, match="on_step raised"):
            trainer.fit(_toy_data(), epochs=1, controller=_RaiseAt(2))
        assert trainer.run_failed

    def test_failure_leaves_last_checkpoint_intact(self, tmp_path):
        """The crash happens *after* the cadence checkpoint was written;
        the store still restores that checkpoint, bit-exact."""
        data = _toy_data()
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(tmp_path, keep=10, clock=lambda: 0.0)
            _, trainer = _make()
            # The raiser is listed first: at step 2 it fires before the
            # checkpointer runs, so the step-2 save never happens and
            # the step-1 checkpoint is the last durable state.
            controller = ComposedController(
                [_RaiseAt(2), CheckpointEvery(store, epochs=None, steps=1)])
            with pytest.raises(ControllerError):
                trainer.fit(data, epochs=2, controller=controller)
            assert trainer.run_failed

            arrays, meta, entry = store.load_latest()
            assert entry.step == 1

            # The checkpoint restores into a fresh trainer and training
            # continues — the failed run never touched the store.
            _, resumed = _make(seed=7)
            resumed.restore_checkpoint(arrays, meta)
            assert resumed.global_step == 1
            resumed.fit(data, epochs=2 - resumed.completed_epochs)
            assert resumed.completed_epochs == 2

    def test_controller_error_passes_through_unwrapped(self):
        class _Direct(TrainingController):
            def on_step(self, trainer, step):
                raise ControllerError("already typed")

        _, trainer = _make()
        with pytest.raises(ControllerError, match="already typed"):
            trainer.fit(_toy_data(), epochs=1, controller=_Direct())
        assert trainer.run_failed

