"""Cross-system experiment runner (the §IV protocol).

One experiment fixes a target system; the remaining systems in its group
act as sources.  Sources contribute their earliest ``n_source`` sequences;
the target contributes its earliest ``n_target`` sequences for training
and the rest for testing (continuous sampling, §IV-A1).  The runner
evaluates LogSynergy and any requested baselines on the shared test set
and returns Table IV/V-shaped rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..baselines.base import BaselineDetector
from ..baselines.registry import make_baseline
from ..config import LogSynergyConfig
from ..core.pipeline import LogSynergy
from ..logs.datasets import LogDataset, build_dataset
from ..logs.sequences import LogSequence
from .metrics import BinaryMetrics, binary_metrics
from .splits import continuous_target_split, source_training_slice

__all__ = ["MethodResult", "ExperimentResult", "CrossSystemExperiment"]


@dataclass(frozen=True)
class MethodResult:
    """One method's scores on one target system."""

    method: str
    target: str
    metrics: BinaryMetrics
    train_seconds: float
    predict_seconds: float

    def row(self) -> dict[str, float | str]:
        """Flat table row (method, target, P/R/F1 percentages)."""
        return {
            "method": self.method,
            "target": self.target,
            **{k: round(v, 2) for k, v in self.metrics.as_percentages().items()},
        }


@dataclass
class ExperimentResult:
    """All methods' scores for one target system."""

    target: str
    sources: tuple[str, ...]
    results: list[MethodResult] = field(default_factory=list)

    def by_method(self) -> dict[str, MethodResult]:
        """Results indexed by method name."""
        return {r.method: r for r in self.results}

    def f1_of(self, method: str) -> float:
        """F1 score of one method."""
        return self.by_method()[method].metrics.f1


class CrossSystemExperiment:
    """Builds data once per target and evaluates methods against it."""

    def __init__(self, target: str, sources: list[str], scale: float = 0.01,
                 n_source: int = 2000, n_target: int = 200, max_test: int | None = 2000,
                 seed: int = 0, datasets: dict[str, LogDataset] | None = None,
                 clock: Callable[[], float] | None = None):
        if target in sources:
            raise ValueError("target cannot be one of the sources")
        self._clock = clock or time.perf_counter
        self.target = target
        self.sources = list(sources)
        self.scale = scale
        self.n_source = n_source
        self.n_target = n_target
        self.max_test = max_test
        self.seed = seed
        self._datasets = datasets or {}
        self._prepared = False
        self.source_train: dict[str, list[LogSequence]] = {}
        self.target_train: list[LogSequence] = []
        self.target_test: list[LogSequence] = []

    # ------------------------------------------------------------------
    def _dataset(self, name: str, index: int) -> LogDataset:
        if name not in self._datasets:
            self._datasets[name] = build_dataset(name, scale=self.scale, seed=self.seed + index)
        return self._datasets[name]

    def prepare(self) -> "CrossSystemExperiment":
        """Generate datasets and cut the continuous splits."""
        if self._prepared:
            return self
        for index, name in enumerate(self.sources):
            dataset = self._dataset(name, index)
            self.source_train[name] = source_training_slice(dataset.sequences, self.n_source)
        target_dataset = self._dataset(self.target, len(self.sources))
        split = continuous_target_split(target_dataset.sequences, self.n_target)
        self.target_train = split.train
        self.target_test = split.test if self.max_test is None else split.test[: self.max_test]
        self._prepared = True
        return self

    @property
    def test_labels(self) -> np.ndarray:
        """Ground-truth labels of the test partition."""
        return np.array([s.label for s in self.target_test], dtype=np.int64)

    # ------------------------------------------------------------------
    def run_logsynergy(self, config: LogSynergyConfig | None = None,
                       method_name: str = "LogSynergy", **kwargs) -> MethodResult:
        """Train and evaluate LogSynergy.

        Ablated variants pass a config with its switches off (e.g.
        ``config.with_overrides(use_lei=False)``); ``kwargs`` go to the
        :class:`LogSynergy` constructor (``llm=`` / ``encoder=``).
        """
        self.prepare()
        config = config or LogSynergyConfig(seed=self.seed)
        model = LogSynergy(config, **kwargs)
        start = self._clock()
        model.fit(self.source_train, self.target, self.target_train)
        train_seconds = self._clock() - start
        start = self._clock()
        predictions = model.predict(self.target_test)
        predict_seconds = self._clock() - start
        return MethodResult(
            method=method_name,
            target=self.target,
            metrics=binary_metrics(self.test_labels, predictions),
            train_seconds=train_seconds,
            predict_seconds=predict_seconds,
        )

    def run_baseline(self, baseline: BaselineDetector | str, **kwargs) -> MethodResult:
        """Train and evaluate one baseline on the shared splits."""
        self.prepare()
        detector = (
            make_baseline(baseline, **kwargs) if isinstance(baseline, str) else baseline
        )
        start = self._clock()
        detector.fit(self.source_train, self.target, self.target_train)
        train_seconds = self._clock() - start
        start = self._clock()
        predictions = detector.predict(self.target_test)
        predict_seconds = self._clock() - start
        return MethodResult(
            method=detector.name,
            target=self.target,
            metrics=binary_metrics(self.test_labels, predictions),
            train_seconds=train_seconds,
            predict_seconds=predict_seconds,
        )

    def run_ensemble(self, ensemble, method_name: str | None = None) -> MethodResult:
        """Evaluate a :class:`repro.detectors.Ensemble` on the shared splits.

        The ensemble trains only on the target's own labeled windows
        (``fit`` warms its members and, in ``stacker`` mode, trains the
        combiner) — source systems contribute nothing, which is exactly
        the day-0 posture the detector portfolio exists for.  Test
        sequences are scored in split order so the members' rolling
        per-system state mirrors a live stream.
        """
        self.prepare()
        if method_name is None:
            members = "+".join(member.name for member in ensemble.members)
            method_name = f"Ensemble[{members}:{ensemble.mode}]"
        start = self._clock()
        ensemble.fit(
            self.target,
            [list(sequence.records) for sequence in self.target_train],
            [sequence.label for sequence in self.target_train],
        )
        train_seconds = self._clock() - start
        start = self._clock()
        predictions = ensemble.predict_sequences(self.target, self.target_test)
        predict_seconds = self._clock() - start
        return MethodResult(
            method=method_name,
            target=self.target,
            metrics=binary_metrics(self.test_labels, predictions),
            train_seconds=train_seconds,
            predict_seconds=predict_seconds,
        )

    def run(self, methods: list[str], config: LogSynergyConfig | None = None) -> ExperimentResult:
        """Evaluate a list of methods ("LogSynergy", baseline names, or
        ``detectors:<spec>`` for an unsupervised ensemble)."""
        result = ExperimentResult(target=self.target, sources=tuple(self.sources))
        for method in methods:
            if method == "LogSynergy":
                result.results.append(self.run_logsynergy(config))
            elif method.startswith("detectors:"):
                from ..detectors import ensemble_from_spec

                ensemble = ensemble_from_spec(method[len("detectors:"):],
                                              seed=self.seed)
                result.results.append(self.run_ensemble(ensemble))
            else:
                result.results.append(self.run_baseline(method))
        return result
