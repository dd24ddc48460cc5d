"""Pure helpers for the serving benchmark: quantiles, window ground truth,
alert scoring.  Nothing here imports the program, so the helpers are
testable without fitting a model.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; fewer make the tail a handful of outliers.
MIN_SAMPLES_BEYOND = 10


def exact_quantile(values, q: float) -> float:
    """Nearest-rank quantile of raw samples: the smallest sample with at
    least ``q`` of all samples at or below it.  Always a value that was
    observed, never an interpolated or bucket-edge one."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` quantile (ties aside)."""
    return count - max(1, math.ceil(q * count - 1e-9))


def supports_quantile(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ``MIN_SAMPLES_BEYOND``
    beyond the ``q`` quantile."""
    return count > 0 and samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def median(values) -> float:
    return float(statistics.median(values))


def faster_half(values, key=None) -> list:
    """The faster half (rounded up) of timing samples, lowest first.

    A shared host's slow spells only ever make a sample slower, and they
    come and go within seconds; the faster half of a run's samples is far
    steadier from run to run than all of them, and its median is still a
    median of several measured samples, not one lucky best case.
    """
    ordered = sorted(values, key=key)
    return ordered[: (len(ordered) + 1) // 2]


def window_index(records, window: int, step: int):
    """Map every window of an interleaved stream to its ground truth.

    Windows are cut per system, and the runtime names them
    ``"<system>:<k>"`` with ``k`` the system's window ordinal.  Returns
    ``{window_id: (last_index, anomalous)}``: ``last_index`` is the
    position in the whole stream of the window's last record, so a paced
    sender that sends record ``i`` at ``t0 + i / rate`` knows when the
    window became complete; ``anomalous`` is true when any record in the
    window is.
    """
    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        positions.setdefault(record.system, []).append(index)
    out: dict[str, tuple[int, bool]] = {}
    for system, indices in positions.items():
        for k in range((len(indices) - window) // step + 1 if len(indices) >= window else 0):
            members = indices[k * step: k * step + window]
            out[f"{system}:{k}"] = (
                members[-1],
                any(records[i].is_anomalous for i in members),
            )
    return out


def alert_f1(alerted, truth) -> float:
    """F1 of the alerted window ids against the anomalous ones."""
    alerted = set(alerted)
    truth = set(truth)
    hits = len(alerted & truth)
    if hits == 0:
        return 0.0
    precision = hits / len(alerted)
    recall = hits / len(truth)
    return 2 * precision * recall / (precision + recall)
