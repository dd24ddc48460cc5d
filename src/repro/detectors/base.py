"""The detector contract: fit-optional scorers over normalized windows.

A *detector* maps one completed window of a system's log stream to a
calibrated anomaly score in ``[0, 1]`` (0.5 is the conventional verdict
threshold, matching :class:`~repro.core.report.AnomalyReport`).  The
contract is deliberately narrow so unsupervised statistical members and
the learned model share one interface:

* ``score_window(system, window)`` — window entries only need
  ``.message`` and ``.timestamp`` attributes, which both
  :class:`~repro.logs.generator.LogRecord` and the runtime's normalized
  :class:`~repro.runtime.UnifiedLog` satisfy.  Detectors keep
  any rolling state **per system**: a system's windows always arrive in
  per-system stream order (the runtime guarantees this for every shard
  count), and cross-system interleaving must not affect verdicts — that
  per-system scoping is what keeps ``repro replay --detectors`` byte-
  identical across ``--shards`` values.
* ``warmup_windows`` — how many windows of a system the detector must
  observe before its scores mean anything.  The ensemble still feeds
  warming members (so they build state) but excludes their scores from
  the combination.
* ``fit(system, windows, labels)`` — optional: statistical members
  ignore it, the logistic stacker and the model adapter use it.  A
  detector that cannot score (no model loaded, dependency down) raises
  :class:`DetectorError`; the ensemble degrades that member and keeps
  the unsupervised members live instead of dropping the window.

Every concrete ``score_window`` implementation must live in this
package — the ``detector-outside-registry`` lint rule enforces it, the
same way ``direct-llm-call`` fences provider construction into
``repro.llm``.
"""

from __future__ import annotations

import math

__all__ = ["DetectorError", "Detector", "calibrate", "window_span_seconds"]


class DetectorError(RuntimeError):
    """A detector member failed to score (the ensemble degrades it)."""


def calibrate(deviation: float, center: float = 3.0, scale: float = 1.0) -> float:
    """Squash a non-negative deviation statistic into a ``[0, 1]`` score.

    A logistic centered at ``center``: deviations at the center score
    exactly 0.5, ``center + 2*scale`` scores ~0.88, and ordinary noise
    well below the center stays under the verdict threshold.  Every
    statistical member routes its raw statistic through this one
    function so "score > 0.5" means the same thing across the portfolio.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return 1.0 / (1.0 + math.exp(-(deviation - center) / scale))


def window_span_seconds(window: list) -> float:
    """Elapsed seconds between a window's first and last record.

    Window timestamps are ``datetime`` objects in generated streams and
    may be plain epoch floats in hand-built tests; both are accepted.
    """
    if len(window) < 2:
        return 0.0
    first, last = window[0].timestamp, window[-1].timestamp
    if hasattr(last, "__sub__") and hasattr(last - first, "total_seconds"):
        return float((last - first).total_seconds())
    return float(last) - float(first)


class Detector:
    """Base class for portfolio members (see the module docstring).

    Subclasses set ``name`` and ``warmup_windows`` as class attributes
    and implement :meth:`score_window`; ``fit`` defaults to a no-op so
    purely unsupervised members need not define it.
    """

    name: str = "detector"
    warmup_windows: int = 0

    def fit(self, system: str, windows: list, labels=None) -> None:
        """Optional supervision hook; the default learns nothing."""

    def score_window(self, system: str, window: list) -> float:
        """Calibrated anomaly score in ``[0, 1]`` for one window."""
        raise NotImplementedError
