"""Offline training loop implementing Eq. 5 (§III-D4).

Each batch runs the feature extractor once, then two phases on its
features:

1. *Estimator phase* — the CLUB network maximizes the likelihood of the
   step's (F_u, F_s) pairs, detached, so no gradient reaches the model.
2. *Main phase* — the model minimizes
   ``L = L_anomaly + L_system + λ_MI · L_MI + λ_DA · L_DA``
   where ``L_MI`` is CLUB's upper bound under the just-updated estimator
   and ``L_DA`` is the DAAN loss with GRL alpha scheduled over training
   progress.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..config import LogSynergyConfig
from ..nn.tensor import Tensor
from ..obs import get_registry
from ..testing.faultpoints import fault_point
from .club import CLUBEstimator
from .controller import CONTINUE, PAUSE, STOP, ControllerError
from .daan import DAANModule
from .model import LogSynergyModel

__all__ = ["TrainingBatch", "TrainingHistory", "LogSynergyTrainer"]


@dataclass(frozen=True)
class TrainingBatch:
    """One mini-batch of training data.

    ``sequences``: (batch, window, embedding_dim) float32,
    ``anomaly_labels``: (batch,) in {0, 1},
    ``system_labels``: (batch,) in [0, num_systems),
    ``domain_labels``: (batch,) in {0 source, 1 target}.
    """

    sequences: np.ndarray
    anomaly_labels: np.ndarray
    system_labels: np.ndarray
    domain_labels: np.ndarray


@dataclass
class TrainingHistory:
    """Per-epoch loss traces for inspection and tests."""

    total: list[float] = field(default_factory=list)
    anomaly: list[float] = field(default_factory=list)
    system: list[float] = field(default_factory=list)
    mutual_information: list[float] = field(default_factory=list)
    domain_adaptation: list[float] = field(default_factory=list)

    def last(self) -> dict[str, float]:
        return {
            "total": self.total[-1],
            "anomaly": self.anomaly[-1],
            "system": self.system[-1],
            "mi": self.mutual_information[-1],
            "da": self.domain_adaptation[-1],
        }


class LogSynergyTrainer:
    """Trains a :class:`LogSynergyModel` with SUFE + DAAN objectives.

    Setting ``use_sufe=False`` reproduces the "LogSynergy w/o SUFE"
    ablation (no system classifier, no MI minimization); domain adaptation
    can likewise be disabled for ablations via ``use_da=False``.
    """

    def __init__(self, model: LogSynergyModel, config: LogSynergyConfig | None = None,
                 use_sufe: bool | None = None, use_da: bool | None = None,
                 pos_weight: float | None = None, skip_nonfinite: bool = True):
        self.model = model
        self.config = config or model.config
        self.use_sufe = self.config.use_sufe if use_sufe is None else use_sufe
        self.use_da = self.config.use_da if use_da is None else use_da
        self.pos_weight = pos_weight
        # Guard against NaN/Inf batch losses (bad batch, numeric blow-up):
        # skip the optimizer step instead of poisoning every parameter.
        self.skip_nonfinite = skip_nonfinite
        # Observability handles are captured at construction; enable a
        # registry before building the trainer to collect its metrics.
        registry = get_registry()
        self._obs = registry
        self._epoch_counter = registry.counter("trainer.epochs")
        self._batch_counter = registry.counter("trainer.batches")
        self._nonfinite_counter = registry.counter("trainer.nonfinite_batches")
        self._estimator_timer = registry.histogram("trainer.estimator_step_seconds")
        self._main_timer = registry.histogram("trainer.main_step_seconds")
        self._batch_timer = registry.histogram("trainer.batch_seconds")
        self._loss_gauges = {
            key: registry.gauge(f"trainer.loss.{key}")
            for key in ("total", "anomaly", "system", "mi", "da")
        }
        rng = np.random.default_rng(self.config.seed + 1)
        self._rng = rng
        self.club = CLUBEstimator(
            self.config.feature_dim, self.config.feature_dim, rng=rng
        )
        self.daan = DAANModule(self.config.feature_dim, num_classes=2, rng=rng)
        self.optimizer = nn.AdamW(
            model.parameters() + self.daan.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.club_optimizer = nn.Adam(self.club.parameters(), lr=1e-3)
        self.history = TrainingHistory()
        # Resume bookkeeping.  `_epoch` counts completed epochs, `_step`
        # counts optimizer steps across the whole run (both survive
        # checkpoint round-trips); `_epoch_state` holds the in-flight
        # epoch's shuffle order, batch position and partial loss sums
        # whenever the trainer is paused mid-epoch.
        self._epoch = 0
        self._step = 0
        self._epoch_state: dict | None = None
        self.run_failed = False

    # ------------------------------------------------------------------
    def _auto_pos_weight(self, labels: np.ndarray) -> float:
        positives = float(labels.sum())
        negatives = float(len(labels) - positives)
        if positives == 0:
            return 1.0
        return float(np.clip(negatives / positives, 1.0, 50.0))

    def _train_step(self, batch: TrainingBatch, alpha: float,
                    pos_weight: float) -> dict[str, float] | None:
        """One optimizer step from one extractor forward.

        The usual CLUB loop: the estimator first fits q(s|u) to detached
        copies of the step's features, then the main loss takes ``L_MI``
        under the updated estimator.
        """
        unified, specific = self.model.extract_features(batch.sequences)
        if self.use_sufe:
            with self._estimator_timer.time():
                loss = self.club.learning_loss(
                    Tensor(unified.data), Tensor(specific.data))
                self.club_optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.club.parameters(), self.config.grad_clip)
                self.club_optimizer.step()
        with self._main_timer.time():
            return self._train_main(batch, unified, specific, alpha, pos_weight)

    def _train_main(self, batch: TrainingBatch, unified: Tensor,
                    specific: Tensor, alpha: float,
                    pos_weight: float) -> dict[str, float] | None:
        anomaly_logits = self.model.anomaly_logits(unified)
        loss_anomaly = nn.binary_cross_entropy_with_logits(
            anomaly_logits, batch.anomaly_labels.astype(np.float32), pos_weight=pos_weight
        )
        loss = loss_anomaly
        parts = {"anomaly": float(loss_anomaly.data), "system": 0.0, "mi": 0.0, "da": 0.0}

        if self.use_sufe:
            system_logits = self.model.system_logits(specific)
            loss_system = nn.cross_entropy(system_logits, batch.system_labels)
            loss_mi = self.club.mi_upper_bound(unified, specific, rng=self._rng)
            loss = loss + loss_system + loss_mi * self.config.lambda_mi
            parts["system"] = float(loss_system.data)
            parts["mi"] = float(loss_mi.data)

        if self.use_da and len(np.unique(batch.domain_labels)) > 1:
            self.daan.set_alpha(alpha)
            with nn.no_grad():
                probs = anomaly_logits.sigmoid().data
            class_probs = Tensor(np.stack([1.0 - probs, probs], axis=1))
            loss_da = self.daan(unified, batch.domain_labels, class_probs)
            loss = loss + loss_da * self.config.lambda_da
            parts["da"] = float(loss_da.data)

        loss = fault_point("core.trainer.loss", loss)
        if self.skip_nonfinite and not np.isfinite(float(loss.data)):
            # Skip the step entirely: backprop through a non-finite loss
            # would poison every parameter in one update.
            self._nonfinite_counter.inc()
            return None

        self.optimizer.zero_grad()
        self.club_optimizer.zero_grad()  # discard MI gradients into the estimator
        loss.backward()
        nn.clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
        self.optimizer.step()
        self.club_optimizer.zero_grad()
        parts["total"] = float(loss.data)
        return parts

    # ------------------------------------------------------------------
    # Controller dispatch
    # ------------------------------------------------------------------
    @property
    def completed_epochs(self) -> int:
        """Fully completed epochs (a paused mid-epoch does not count)."""
        return self._epoch

    @property
    def global_step(self) -> int:
        """Optimizer steps taken across the whole run, resume included."""
        return self._step

    def _dispatch(self, controller, hook: str, *args) -> str:
        if controller is None:
            return CONTINUE
        try:
            action = getattr(controller, hook)(*args)
        except ControllerError:
            self.run_failed = True
            raise
        except Exception as error:  # lint: disable=blanket-except
            # A broken callback fails the run.  Training state is left
            # exactly as it was, so the last durable checkpoint stays
            # the restart point.
            self.run_failed = True
            raise ControllerError(
                f"training controller {hook} raised") from error
        return CONTINUE if action is None else action

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def _module_rngs(self) -> list[np.random.Generator]:
        """Distinct RNG generators reachable from the module trees
        (dropout masks draw from these), in deterministic first-seen
        traversal order.  Both trainers in a resume pair build the same
        sharing topology, so positional restore is exact."""
        generators: list[np.random.Generator] = []
        seen: set[int] = set()

        def walk(module) -> None:
            rng = getattr(module, "rng", None)
            if isinstance(rng, np.random.Generator) and id(rng) not in seen:
                seen.add(id(rng))
                generators.append(rng)
            for child in module._modules.values():
                walk(child)

        for root in (self.model, self.daan, self.club):
            walk(root)
        return generators

    def checkpoint_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Everything needed to resume bit-exactly, as (arrays, meta).

        Arrays: model/DAAN/CLUB parameters, both optimizers' moment
        estimates, and the in-flight epoch's shuffle order (mid-epoch
        only).  Meta (JSON-serializable): epoch/step counters, optimizer
        scalars, the PCG64 bit-generator state, the loss history and the
        mid-epoch batch position and partial loss sums.
        """
        arrays: dict[str, np.ndarray] = {}
        for prefix, module in (("model", self.model), ("daan", self.daan),
                               ("club", self.club)):
            for key, value in module.state_dict().items():
                arrays[f"{prefix}.{key}"] = value
        optimizer_meta = {}
        for prefix, optimizer in (("opt", self.optimizer),
                                  ("clubopt", self.club_optimizer)):
            state = optimizer.state_dict()
            for i, (m, v) in enumerate(zip(state["m"], state["v"])):
                arrays[f"{prefix}.m.{i}"] = m
                arrays[f"{prefix}.v.{i}"] = v
            optimizer_meta[prefix] = {
                "step_count": state["step_count"],
                "lr": state["lr"],
                "size": len(state["m"]),
            }
        meta = {
            "format": 1,
            "epoch": self._epoch,
            "step": self._step,
            "optimizers": optimizer_meta,
            "rng": self._rng.bit_generator.state,
            "module_rngs": [generator.bit_generator.state
                            for generator in self._module_rngs()],
            # DAAN's dynamic global/local balance is an EMA updated every
            # forward — rolling state the parameter arrays don't carry.
            "daan_omega": float(self.daan.omega),
            "history": {
                "total": list(self.history.total),
                "anomaly": list(self.history.anomaly),
                "system": list(self.history.system),
                "mutual_information": list(self.history.mutual_information),
                "domain_adaptation": list(self.history.domain_adaptation),
            },
            "epoch_state": None,
        }
        if self._epoch_state is not None:
            arrays["order"] = np.asarray(self._epoch_state["order"],
                                         dtype=np.int64)
            meta["epoch_state"] = {
                "position": int(self._epoch_state["position"]),
                "count": int(self._epoch_state["count"]),
                "sums": dict(self._epoch_state["sums"]),
            }
        return arrays, meta

    def restore_checkpoint(self, arrays: dict[str, np.ndarray],
                           meta: dict) -> None:
        """Load state captured by :meth:`checkpoint_state`."""
        grouped: dict[str, dict[str, np.ndarray]] = {
            "model": {}, "daan": {}, "club": {}}
        for key, value in arrays.items():
            prefix, _, rest = key.partition(".")
            if prefix in grouped:
                grouped[prefix][rest] = value
        self.model.load_state_dict(grouped["model"])
        self.daan.load_state_dict(grouped["daan"])
        self.club.load_state_dict(grouped["club"])
        for prefix, optimizer in (("opt", self.optimizer),
                                  ("clubopt", self.club_optimizer)):
            scalars = meta["optimizers"][prefix]
            size = int(scalars["size"])
            optimizer.load_state_dict({
                "step_count": scalars["step_count"],
                "lr": scalars["lr"],
                "m": [arrays[f"{prefix}.m.{i}"] for i in range(size)],
                "v": [arrays[f"{prefix}.v.{i}"] for i in range(size)],
            })
        self._rng.bit_generator.state = meta["rng"]
        generators = self._module_rngs()
        states = meta["module_rngs"]
        if len(generators) != len(states):
            raise ValueError(
                f"checkpoint carries {len(states)} module RNG states for "
                f"{len(generators)} generators — model topology mismatch")
        for generator, state in zip(generators, states):
            generator.bit_generator.state = state
        self.daan.omega = float(meta["daan_omega"])
        history = meta["history"]
        self.history.total[:] = history["total"]
        self.history.anomaly[:] = history["anomaly"]
        self.history.system[:] = history["system"]
        self.history.mutual_information[:] = history["mutual_information"]
        self.history.domain_adaptation[:] = history["domain_adaptation"]
        self._epoch = int(meta["epoch"])
        self._step = int(meta["step"])
        epoch_state = meta.get("epoch_state")
        if epoch_state is None:
            self._epoch_state = None
        else:
            self._epoch_state = {
                "order": np.asarray(arrays["order"], dtype=np.int64),
                "position": int(epoch_state["position"]),
                "count": int(epoch_state["count"]),
                "sums": {key: float(value)
                         for key, value in epoch_state["sums"].items()},
            }

    def resume_from(self, store) -> bool:
        """Restore the newest verifiable checkpoint from a
        :class:`~repro.core.checkpoint.CheckpointStore`; ``False`` when
        the store holds none."""
        loaded = store.load_latest()
        if loaded is None:
            return False
        arrays, meta, _entry = loaded
        self.restore_checkpoint(arrays, meta)
        return True

    # ------------------------------------------------------------------
    def fit(self, data: TrainingBatch, epochs: int | None = None,
            verbose: bool = False, profiler=None,
            controller=None) -> TrainingHistory:
        """Train on the full (source + target) training set.

        ``epochs`` counts epochs *beyond those already completed*: a
        fresh trainer runs the usual ``config.epochs``, while a trainer
        restored mid-run via :meth:`restore_checkpoint` continues toward
        the original total — the GRL alpha schedule spans the combined
        run, so ``fit(k) → resume → fit(N−k)`` is bit-identical to
        ``fit(N)``.

        ``profiler`` optionally takes an :class:`repro.nn.OpProfiler`; it is
        entered around the whole training loop so every autograd op in the
        fit lands in its ranked hot-op table (the ``repro profile`` path).

        ``controller`` optionally takes a
        :class:`~repro.core.controller.TrainingController` whose hooks
        can pause, stop, checkpoint, or adjust the learning rate.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        pos_weight = (
            self.pos_weight if self.pos_weight is not None
            else self._auto_pos_weight(data.anomaly_labels)
        )
        target_epoch = self._epoch + epochs
        total_steps = max(1, target_epoch * max(1, len(data.anomaly_labels) // self.config.batch_size))
        self.model.train()
        profile_scope = profiler if profiler is not None else contextlib.nullcontext()
        self._dispatch(controller, "on_fit_start", self)
        with profile_scope:
            self._fit_epochs(data, target_epoch, pos_weight, total_steps,
                             verbose, controller)
        self.model.eval()
        self._dispatch(controller, "on_fit_end", self, self.history)
        return self.history

    def _fit_epochs(self, data: TrainingBatch, target_epoch: int,
                    pos_weight: float, total_steps: int, verbose: bool,
                    controller) -> None:
        batch_size = self.config.batch_size
        while self._epoch < target_epoch:
            epoch = self._epoch
            if self._epoch_state is None:
                self._epoch_state = {
                    "order": self._rng.permutation(len(data.anomaly_labels)),
                    "position": 0,
                    "sums": {"total": 0.0, "anomaly": 0.0, "system": 0.0,
                             "mi": 0.0, "da": 0.0},
                    "count": 0,
                }
            if self._dispatch(controller, "on_epoch_start", self, epoch) == STOP:
                self._epoch_state = None
                return
            state = self._epoch_state
            order = state["order"]
            with self._obs.tracer.span("trainer.epoch", index=epoch) as span:
                while state["position"] < len(order):
                    index = order[state["position"]:state["position"] + batch_size]
                    state["position"] += batch_size
                    if len(index) < 2:
                        continue  # CLUB/DAAN need at least two samples
                    batch = TrainingBatch(
                        sequences=data.sequences[index],
                        anomaly_labels=data.anomaly_labels[index],
                        system_labels=data.system_labels[index],
                        domain_labels=data.domain_labels[index],
                    )
                    alpha = DAANModule.schedule_alpha(self._step / total_steps)
                    with self._batch_timer.time():
                        parts = self._train_step(batch, alpha, pos_weight)
                    if parts is None:
                        # Non-finite loss skipped its step; keep the alpha
                        # schedule moving and leave the epoch averages clean.
                        self._step += 1
                        self._batch_counter.inc()
                    else:
                        for key in state["sums"]:
                            state["sums"][key] += parts[key]
                        state["count"] += 1
                        self._step += 1
                        self._batch_counter.inc()
                    action = self._dispatch(controller, "on_step", self,
                                            self._step)
                    if action == PAUSE:
                        # Mid-epoch state stays in place: a checkpoint
                        # written by the hook (or a later fit) resumes
                        # from exactly the next batch.
                        return
                    if action == STOP:
                        self._epoch_state = None
                        return
                if state["count"] == 0:
                    raise ValueError("training data produced no usable batches")
                metrics = {key: state["sums"][key] / state["count"]
                           for key in state["sums"]}
                self.history.total.append(metrics["total"])
                self.history.anomaly.append(metrics["anomaly"])
                self.history.system.append(metrics["system"])
                self.history.mutual_information.append(metrics["mi"])
                self.history.domain_adaptation.append(metrics["da"])
                self._epoch_counter.inc()
                for key, gauge in self._loss_gauges.items():
                    gauge.set(metrics[key])
                    span.set(f"loss_{key}", round(metrics[key], 6))
                span.set("batches", state["count"])
            self._epoch_state = None
            self._epoch += 1
            if verbose:
                print(f"epoch {epoch + 1}/{target_epoch}: " + ", ".join(
                    f"{k}={v:.4f}" for k, v in self.history.last().items()
                ))
            if self._dispatch(controller, "on_epoch_end", self, epoch,
                              metrics) in (PAUSE, STOP):
                return
