"""Ensemble combiner: vote / max / learned logistic stacker.

Combines the portfolio's per-member scores into one calibrated verdict
per window.  A batch of one system's windows is scored column by
column: each member, in registration order, is consulted once for the
whole batch (:meth:`~repro.detectors.base.Detector.score_windows`).  A
member that raises :class:`~repro.detectors.base.DetectorError` is
degraded for every window of that batch (counted per window on
``detectors.<name>.errors``) and the remaining live members carry the
verdicts — this is the mechanism behind the
"degraded model keeps unsupervised members live" fuzz invariant.
Members still inside their declared ``warmup_windows`` for a system are
fed every window (so they build state) but excluded from combination.

Combination modes:

``max``
    The portfolio fires if any member fires: ``max`` over live scores.
    Monotone in every member score, and the right default for a
    heterogeneous portfolio whose members own disjoint anomaly classes
    (only EWMA sees volume storms, only LOF sees semantic novelty).
``vote``
    Fraction of live members scoring above 0.5.  An exact tie (half the
    live members vote anomalous) resolves deterministically by the mean
    raw score — never by dict order or arrival timing.
``stacker``
    Logistic regression over the member score vector, trained on
    labeled windows via :meth:`Ensemble.fit`.  Training is full-batch
    gradient descent in float64 with the initial weights drawn from
    ``np.random.default_rng(seed)``, so a refit under the same seed and
    data is byte-identical.  Degraded/warming member scores are imputed
    at the neutral 0.5 both at fit and predict time.

Every consultation is mirrored to ``detectors.*`` obs counters (one
family per member plus ``detectors.ensemble.*`` for the combined
verdicts), all registered in :mod:`repro.obs.catalog`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs import get_registry

from .base import Detector, DetectorError
from .model import ModelDetector

__all__ = ["Ensemble", "LogisticStacker", "ENSEMBLE_MODES"]

ENSEMBLE_MODES = ("vote", "max", "stacker")


class LogisticStacker:
    """Deterministic full-batch logistic regression over member scores."""

    def __init__(self, n_members: int, *, seed: int = 0, learning_rate: float = 0.5,
                 epochs: int = 300, l2: float = 1e-3) -> None:
        if n_members < 1:
            raise ValueError(f"stacker needs at least one member, got {n_members}")
        self.n_members = n_members
        self.seed = seed
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights = np.zeros(n_members, dtype=np.float64)
        self.bias = 0.0
        self.fitted = False

    @staticmethod
    def _sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def fit(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        """Fit on an ``(n_windows, n_members)`` score matrix; byte-identical
        for identical inputs and seed."""
        matrix = np.asarray(matrix, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_members:
            raise ValueError(
                f"expected (n, {self.n_members}) score matrix, got {matrix.shape}")
        if matrix.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{matrix.shape[0]} windows but {labels.shape[0]} labels")
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0.0, 0.01, size=self.n_members)
        bias = 0.0
        n = matrix.shape[0]
        for _ in range(self.epochs):
            predictions = self._sigmoid(matrix @ weights + bias)
            gradient = matrix.T @ (predictions - labels) / n + self.l2 * weights
            weights -= self.learning_rate * gradient
            bias -= self.learning_rate * float(np.mean(predictions - labels))
        self.weights = weights
        self.bias = bias
        self.fitted = True

    def predict(self, scores: np.ndarray) -> float:
        if not self.fitted:
            raise DetectorError("logistic stacker used before fit")
        return float(self._sigmoid(float(np.dot(self.weights, scores) + self.bias)))


class Ensemble:
    """Portfolio combiner over :class:`Detector` members."""

    def __init__(self, members: list[Detector], mode: str = "max", *,
                 threshold: float = 0.5, seed: int = 0, registry=None) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate member names: {names}")
        if mode not in ENSEMBLE_MODES:
            raise ValueError(
                f"unknown ensemble mode {mode!r}; expected one of {ENSEMBLE_MODES}")
        self.members = list(members)
        self.mode = mode
        self.threshold = threshold
        self.seed = seed
        self.stacker = LogisticStacker(len(members), seed=seed)
        self._seen: dict[tuple[str, str], int] = {}
        registry = registry if registry is not None else get_registry()
        self._member_counters = {
            member.name: {
                "windows": registry.counter(f"detectors.{member.name}.windows"),
                "anomalous": registry.counter(f"detectors.{member.name}.anomalous"),
                "errors": registry.counter(f"detectors.{member.name}.errors"),
                "warmups": registry.counter(f"detectors.{member.name}.warmups"),
            }
            for member in self.members
        }
        self._windows = registry.counter("detectors.ensemble.windows")
        self._anomalous = registry.counter("detectors.ensemble.anomalous")
        self._member_errors = registry.counter("detectors.ensemble.member_errors")
        self._stacker_fits = registry.counter("detectors.ensemble.stacker_fits")

    # ------------------------------------------------------------------
    def member_error_count(self, name: str) -> int:
        """Degraded-consultation count for one member (obs-backed)."""
        return int(self._member_counters[name]["errors"].value)

    def member_scored_count(self, name: str) -> int:
        """Live (post-warmup, non-degraded) window count for one member."""
        return int(self._member_counters[name]["windows"].value)

    @property
    def pipeline(self):
        """The fitted pipeline behind a live model member, else ``None``.

        The runtime admits records through its per-system parse when
        there is one, so the member scores the ids stamped at admission.
        """
        for member in self.members:
            if isinstance(member, ModelDetector) and member.available:
                return member.pipeline
        return None

    def _member_column(self, member: Detector, system: str,
                       windows: list[list]) -> list[float | None]:
        """One member's scores for a batch; ``None`` marks degraded or
        warming windows.  A :class:`DetectorError` degrades the batch."""
        counters = self._member_counters[member.name]
        try:
            scores = member.score_windows(system, windows)
        except DetectorError:
            counters["errors"].inc(len(windows))
            self._member_errors.inc(len(windows))
            return [None] * len(windows)
        key = (member.name, system)
        observed = self._seen.get(key, 0)
        self._seen[key] = observed + len(windows)
        column: list[float | None] = []
        for ordinal, score in enumerate(scores, start=observed):
            if ordinal < member.warmup_windows:
                counters["warmups"].inc()
                column.append(None)
                continue
            score = max(0.0, min(1.0, float(score)))
            counters["windows"].inc()
            if score > 0.5:
                counters["anomalous"].inc()
            column.append(score)
        return column

    def _score_rows(self, system: str, windows: list[list]) -> list[tuple]:
        """Consult every member once for the batch; one row of member
        scores per window."""
        if not windows:
            return []
        return list(zip(*(self._member_column(member, system, windows)
                          for member in self.members)))

    def combine(self, scores: Sequence[float | None]) -> float:
        """Combine member scores (see module docstring for mode semantics)."""
        live = [s for s in scores if s is not None]
        if self.mode == "stacker":
            vector = np.array([0.5 if s is None else s for s in scores],
                              dtype=np.float64)
            return self.stacker.predict(vector)
        if not live:
            return 0.0
        if self.mode == "max":
            return max(live)
        votes = sum(1 for s in live if s > 0.5)
        fraction = votes / len(live)
        if fraction == 0.5:
            return sum(live) / len(live)
        return fraction

    def score_window(self, system: str, window: list) -> float:
        return self.score_windows(system, [window])[0]

    def score_windows(self, system: str, windows: list[list]) -> list[float]:
        """Score one system's windows in stream order (members are
        stateful); each member is consulted once for the whole batch."""
        scores = []
        for row in self._score_rows(system, windows):
            combined = self.combine(row)
            self._windows.inc()
            if combined > self.threshold:
                self._anomalous.inc()
            scores.append(combined)
        return scores

    # ------------------------------------------------------------------
    def fit(self, system: str, windows: list[list], labels) -> None:
        """Warm members on labeled windows; train the stacker when in use.

        Windows must be in per-system stream order.  Members' own
        ``fit`` hooks run first, then each window is scored through the
        portfolio to build the stacker's training matrix.
        """
        labels = np.asarray(labels, dtype=np.float64)
        if len(windows) != labels.shape[0]:
            raise ValueError(f"{len(windows)} windows but {labels.shape[0]} labels")
        for member in self.members:
            member.fit(system, windows, labels)
        matrix = np.array(
            [[0.5 if s is None else s for s in row]
             for row in self._score_rows(system, windows)],
            dtype=np.float64,
        )
        if self.mode == "stacker":
            if matrix.shape[0] == 0:
                raise ValueError("stacker fit needs at least one labeled window")
            if len(set(labels.tolist())) < 2:
                # A single-class fit silently learns "always normal" (or
                # "always anomalous") — refuse instead: day-0 targets
                # without labeled anomalies should combine with max/vote.
                raise ValueError(
                    "stacker fit needs both classes in the training labels; "
                    "use mode='max' or 'vote' when labeled anomalies are "
                    "unavailable")
            self.stacker.fit(matrix, labels)
            self._stacker_fits.inc()

    def predict_sequences(self, system: str, sequences: list) -> np.ndarray:
        """Binary verdicts for :class:`~repro.logs.sequences.LogSequence`
        batches — the :class:`~repro.evaluation.experiment` adapter."""
        scores = self.score_windows(
            system, [list(sequence.records) for sequence in sequences])
        return (np.asarray(scores, dtype=np.float64) > self.threshold).astype(np.int64)
