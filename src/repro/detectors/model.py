"""ModelDetector: the learned LogSynergy pipeline as a portfolio member.

Adapts a fitted :class:`~repro.core.pipeline.LogSynergy` to the
:class:`~repro.detectors.base.Detector` contract so the transfer-learned
model votes alongside the unsupervised members.  The adapter is where
the day-0 story becomes concrete: with no model loaded (``pipeline=None``
— a brand-new system has nothing to load) every score raises
:class:`~repro.detectors.base.DetectorError`, the ensemble counts the
member as degraded, and the unsupervised members carry the verdict.
The same degradation path absorbs a model that dies mid-stream, so a
broken checkpoint can never take the whole portfolio down with it.

A live member parses nothing itself: it scores the ``event_id`` each
window entry was stamped with by the runtime's admission parse (the
window's own system's featurizer, see
:meth:`~repro.runtime.InferenceRuntime.from_ensemble`), one forward per
batch through :meth:`~repro.core.pipeline.LogSynergy.score_event_ids`,
which builds no reports: the ensemble reads only the scores.
"""

from __future__ import annotations

from .base import Detector, DetectorError

__all__ = ["ModelDetector"]


class ModelDetector(Detector):
    """Learned-model member; degrades to :class:`DetectorError` when absent."""

    name = "model"
    warmup_windows = 0

    def __init__(self, pipeline=None) -> None:
        self.pipeline = pipeline

    @property
    def available(self) -> bool:
        return self.pipeline is not None and getattr(self.pipeline, "model", None) is not None

    def score_window(self, system: str, window: list) -> float:
        return self.score_windows(system, [window])[0]

    def score_windows(self, system: str, windows: list[list]) -> list[float]:
        if not self.available:
            raise DetectorError("learned model unavailable (day-0 / not loaded)")
        try:
            grid = [[entry.event_id for entry in window] for window in windows]
        except AttributeError as exc:
            raise DetectorError(
                "window entries carry no event_id: the model member scores "
                "ids stamped by the runtime's admission parse "
                "(InferenceRuntime.from_ensemble with a fitted pipeline)"
            ) from exc
        try:
            scores = self.pipeline.score_event_ids(system, grid)
        except Exception as exc:  # lint: disable=blanket-except
            # A dying model must degrade this member, not kill the
            # portfolio: the ensemble catches DetectorError and keeps
            # the unsupervised members live.
            raise DetectorError(f"learned model failed to score: {exc}") from exc
        return [max(0.0, min(1.0, float(score))) for score in scores]
