"""Training controllers: callback hooks threaded through ``fit``.

A :class:`TrainingController` sees the trainer at well-defined points
(``on_fit_start`` → per epoch ``on_epoch_start`` → per batch
``on_step`` → ``on_epoch_end`` → ``on_fit_end``) and steers the run by
returning an action:

* :data:`CONTINUE` (or ``None``) — keep training.
* :data:`PAUSE` — halt *preserving* mid-epoch resume state: the
  trainer's epoch/step counters, shuffle order and partial loss sums
  stay in place, so a later ``fit`` (or a checkpoint written inside the
  hook) continues bit-exactly where the run stopped.
* :data:`STOP` — halt and discard the partial epoch: the run is over.

Hooks may also act imperatively — write a checkpoint through a
:class:`~repro.core.checkpoint.CheckpointStore` they own.

An exception escaping a hook marks the run failed
(``trainer.run_failed``) and surfaces as :class:`ControllerError`; the
trainer performs no further writes, so the last durable checkpoint is
untouched and remains the restart point.
"""

from __future__ import annotations

__all__ = [
    "CONTINUE", "PAUSE", "STOP",
    "ControllerError", "TrainingController", "ComposedController",
    "CheckpointEvery", "StopAfter", "compose",
]

CONTINUE = "continue"
PAUSE = "pause"
STOP = "stop"

# Ordering for ComposedController: the strongest requested action wins.
_STRENGTH = {None: 0, CONTINUE: 0, PAUSE: 1, STOP: 2}


class ControllerError(RuntimeError):
    """A controller callback raised; the training run is failed."""


class TrainingController:
    """Base controller: every hook is a no-op returning :data:`CONTINUE`.

    Subclass and override the hooks you need; any hook may return an
    action string (``None`` counts as :data:`CONTINUE`).
    """

    def on_fit_start(self, trainer) -> str | None:
        return None

    def on_epoch_start(self, trainer, epoch: int) -> str | None:
        return None

    def on_step(self, trainer, step: int) -> str | None:
        return None

    def on_epoch_end(self, trainer, epoch: int,
                     metrics: dict[str, float]) -> str | None:
        return None

    def on_fit_end(self, trainer, history) -> str | None:
        return None


class ComposedController(TrainingController):
    """Fans each hook out to child controllers in order.

    Every child runs on every hook (so a checkpoint controller listed
    before a kill-switch has written by the time the switch fires); the
    strongest action requested wins (STOP > PAUSE > CONTINUE).
    """

    def __init__(self, controllers):
        self.controllers = list(controllers)

    def _fan(self, hook: str, *args) -> str | None:
        strongest: str | None = None
        for controller in self.controllers:
            action = getattr(controller, hook)(*args)
            if _STRENGTH.get(action, 0) > _STRENGTH.get(strongest, 0):
                strongest = action
        return strongest

    def on_fit_start(self, trainer):
        return self._fan("on_fit_start", trainer)

    def on_epoch_start(self, trainer, epoch):
        return self._fan("on_epoch_start", trainer, epoch)

    def on_step(self, trainer, step):
        return self._fan("on_step", trainer, step)

    def on_epoch_end(self, trainer, epoch, metrics):
        return self._fan("on_epoch_end", trainer, epoch, metrics)

    def on_fit_end(self, trainer, history):
        return self._fan("on_fit_end", trainer, history)


def compose(controllers) -> TrainingController | None:
    """Collapse a controller list: ``None`` for empty, the sole element
    for singletons, a :class:`ComposedController` otherwise."""
    controllers = [c for c in controllers if c is not None]
    if not controllers:
        return None
    if len(controllers) == 1:
        return controllers[0]
    return ComposedController(controllers)


class CheckpointEvery(TrainingController):
    """Writes trainer checkpoints on a fixed cadence.

    ``epochs=k`` checkpoints after every k-th completed epoch;
    ``steps=m`` additionally checkpoints every m-th optimizer step
    (mid-epoch, capturing the shuffle order and partial sums).
    """

    def __init__(self, store, *, epochs: int | None = 1,
                 steps: int | None = None):
        if epochs is not None and epochs < 1:
            raise ValueError(f"epochs cadence must be >= 1, got {epochs}")
        if steps is not None and steps < 1:
            raise ValueError(f"steps cadence must be >= 1, got {steps}")
        self.store = store
        self.epochs = epochs
        self.steps = steps

    def _save(self, trainer) -> None:
        arrays, meta = trainer.checkpoint_state()
        self.store.save(arrays, meta)

    def on_step(self, trainer, step):
        if self.steps is not None and step % self.steps == 0:
            self._save(trainer)
        return None

    def on_epoch_end(self, trainer, epoch, metrics):
        if self.epochs is not None and (epoch + 1) % self.epochs == 0:
            self._save(trainer)
        return None


class StopAfter(TrainingController):
    """Halts after a fixed number of completed epochs or global steps.

    ``action`` defaults to :data:`PAUSE` (resumable); pass :data:`STOP`
    for a terminal halt.  Thresholds are absolute (global step / epoch
    ordinals), so the controller composes with resumed runs.
    """

    def __init__(self, *, epochs: int | None = None,
                 steps: int | None = None, action: str = PAUSE):
        if action not in (PAUSE, STOP):
            raise ValueError(f"action must be pause|stop, got {action!r}")
        self.epochs = epochs
        self.steps = steps
        self.action = action

    def on_step(self, trainer, step):
        if self.steps is not None and step >= self.steps:
            return self.action
        return None

    def on_epoch_end(self, trainer, epoch, metrics):
        if self.epochs is not None and epoch + 1 >= self.epochs:
            return self.action
        return None
