"""Live onboarding: warm-start fine-tuning behind a shadow-F1 gate.

The paper's premise is bringing *new* software systems online cheaply:
warm-start from the fitted multi-system model and fine-tune on the
trickle of day-0 logs while the runtime keeps serving the old weights.
:class:`OnboardingSession` implements that as a small state machine:

``IDLE -> FINE_TUNING -> SHADOW -> PROMOTED | REJECTED``

* **FINE_TUNING** — a *candidate* model (a fresh
  :class:`~repro.core.model.LogSynergyModel` loaded from the serving
  weights) is fine-tuned on the head of the day-0 sequences.  The
  serving pipeline is never touched: a crash anywhere in this phase —
  including inside a checkpoint write — leaves the old weights serving.
* **SHADOW** — the candidate is evaluated on the held-out tail of the
  stream (windows the fine-tune never saw); its F1 at the configured
  threshold is the shadow score.
* **PROMOTED** — only when the shadow F1 clears ``gate_f1`` does the
  candidate state reach the serving path: first the runtime's hot swap
  (:meth:`~repro.runtime.engine.InferenceRuntime.swap_weights`, which
  also sends it to every shard process under the process executor),
  then the local pipeline, unless the runtime serves that very pipeline
  and so has already loaded it.
* **REJECTED** — below the gate nothing is swapped; the
  candidate is discarded and the old weights keep serving.

Fine-tuning itself is resumable: pass a
:class:`~repro.core.checkpoint.CheckpointStore` to checkpoint each
epoch, and ``resume=True`` to continue an interrupted session from the
newest verifiable checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_registry, trace
from .checkpoint import CheckpointStore
from .controller import CheckpointEvery, TrainingController, compose
from .model import LogSynergyModel
from .trainer import LogSynergyTrainer, TrainingBatch, TrainingHistory

__all__ = [
    "OnboardingResult", "OnboardingSession",
    "IDLE", "FINE_TUNING", "SHADOW", "PROMOTED", "REJECTED",
]

IDLE = "idle"
FINE_TUNING = "fine-tuning"
SHADOW = "shadow"
PROMOTED = "promoted"
REJECTED = "rejected"


@dataclass(frozen=True)
class OnboardingResult:
    """Outcome of one onboarding run."""

    state: str                      # PROMOTED or REJECTED
    shadow_f1: float
    gate_f1: float
    epochs: int                     # epochs the fine-tune actually ran
    train_sequences: int
    holdout_sequences: int
    history: TrainingHistory

    @property
    def promoted(self) -> bool:
        return self.state == PROMOTED


class OnboardingSession:
    """Fine-tune a candidate on day-0 sequences; promote past a gate.

    Parameters
    ----------
    pipeline:
        The fitted :class:`~repro.core.pipeline.LogSynergy` whose
        weights currently serve.  Promotion loads the candidate state
        into ``pipeline.model`` (after the runtime swap, if any).
    runtime:
        Optional live :class:`~repro.runtime.engine.InferenceRuntime`
        serving the old weights; on promotion it receives the candidate
        state via its hot swap before the local pipeline is updated.
    gate_f1:
        Minimum shadow F1 for promotion.  A holdout with no anomalous
        windows scores 0.0 and is always rejected — a deliberate bias:
        without positive shadow evidence the old weights keep serving.
    holdout_fraction:
        Tail fraction of the sequences reserved for shadow evaluation
        (never seen by the fine-tune).
    """

    def __init__(self, pipeline, *, runtime=None, gate_f1: float = 0.6,
                 holdout_fraction: float = 0.5):
        if pipeline.model is None or pipeline.target_system is None:
            raise ValueError("onboarding requires a fitted pipeline")
        if not 0.0 <= gate_f1 <= 1.0:
            raise ValueError(f"gate_f1 must be in [0, 1], got {gate_f1}")
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
        self.pipeline = pipeline
        self.runtime = runtime
        self.gate_f1 = float(gate_f1)
        self.holdout_fraction = float(holdout_fraction)
        self.state = IDLE
        registry = get_registry()
        self._promoted = registry.counter("onboard.promoted")
        self._rejected = registry.counter("onboard.rejected")
        self._shadow_gauge = registry.gauge("onboard.shadow_f1")

    # ------------------------------------------------------------------
    def _split(self, sequences: list) -> tuple[list, list]:
        holdout = max(1, int(round(len(sequences) * self.holdout_fraction)))
        if holdout >= len(sequences):
            raise ValueError(
                f"{len(sequences)} sequences leave no training data after "
                f"a {self.holdout_fraction:.0%} holdout")
        return sequences[:-holdout], sequences[-holdout:]

    def _system_id(self, system: str) -> int:
        # A genuinely new system has no classifier slot of its own (the
        # head's width is fixed at fit time); it takes over the target
        # slot — onboarding *is* re-targeting the transfer pipeline.
        index = self.pipeline._system_index
        return index.get(system, index[self.pipeline.target_system])

    def _batch(self, system: str, sequences: list) -> TrainingBatch:
        featurizer = self.pipeline._featurizer(system)
        embedded = featurizer.embed_sequences(sequences)
        n = len(sequences)
        return TrainingBatch(
            sequences=embedded,
            anomaly_labels=np.array([s.label for s in sequences],
                                    dtype=np.int64),
            system_labels=np.full(n, self._system_id(system),
                                  dtype=np.int64),
            # Single-domain batches: the trainer's DAAN guard skips
            # adversarial alignment when only one domain is present.
            domain_labels=np.ones(n, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    def run(self, system: str, sequences: list, *,
            epochs: int | None = None,
            controller: TrainingController | None = None,
            store: CheckpointStore | None = None,
            resume: bool = False) -> OnboardingResult:
        """Fine-tune on ``sequences`` from ``system`` and maybe promote.

        ``store`` checkpoints the *candidate* trainer every epoch (and
        is what ``resume=True`` restores from); the serving weights are
        never written, so no crash here can demote them.
        """
        config = self.pipeline.config
        total_epochs = epochs if epochs is not None else config.epochs
        train, holdout = self._split(list(sequences))
        with trace("onboard", system=system, sequences=len(sequences)):
            self.state = FINE_TUNING
            candidate = LogSynergyModel(
                config, num_systems=self.pipeline.model.num_systems,
                rng=np.random.default_rng(config.seed),
            )
            candidate.load_state_dict(self.pipeline.model.state_dict())
            trainer = LogSynergyTrainer(candidate, config)
            if store is not None and resume:
                trainer.resume_from(store)
            checkpointer = CheckpointEvery(store) if store is not None else None
            batch = self._batch(system, train)
            remaining = max(0, total_epochs - trainer.completed_epochs)
            history = trainer.fit(
                batch, epochs=remaining,
                controller=compose([checkpointer, controller]),
            )

            self.state = SHADOW
            holdout_batch = self._batch(system, holdout)
            probabilities = candidate.predict_proba(holdout_batch.sequences)
            predictions = (probabilities > config.threshold).astype(np.int64)
            # Local import: evaluation composes over core, not the
            # other way around, so keep the cycle out of module scope.
            from ..evaluation.metrics import binary_metrics

            shadow_f1 = binary_metrics(
                holdout_batch.anomaly_labels, predictions).f1
            self._shadow_gauge.set(shadow_f1)

            if shadow_f1 >= self.gate_f1:
                state = candidate.state_dict()
                if self.runtime is not None:
                    self.runtime.swap_weights(state)
                # A runtime built over this pipeline has just loaded it.
                if self.runtime is None or self.runtime.serving is not self.pipeline:
                    self.pipeline.model.load_state_dict(state)
                self.state = PROMOTED
                self._promoted.inc()
            else:
                self.state = REJECTED
                self._rejected.inc()
        return OnboardingResult(
            state=self.state, shadow_f1=float(shadow_f1),
            gate_f1=self.gate_f1, epochs=trainer.completed_epochs,
            train_sequences=len(train), holdout_sequences=len(holdout),
            history=history,
        )
