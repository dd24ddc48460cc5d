"""Process-local metric primitives: counters, gauges, histograms.

Design rules (kept deliberately strict so tests stay deterministic):

* No metric reads the clock on its own.  ``Counter.inc`` /
  ``Gauge.set`` / ``Histogram.observe`` are pure arithmetic; wall-clock
  only enters through an *explicitly started* timer
  (:meth:`Histogram.time`) or a tracer span.
* Histograms use **fixed bucket boundaries** chosen at creation, so two
  runs over the same values produce bit-identical state.
* A registry is process-local and cheap: one dict lookup per metric
  handle; hot paths grab handles once and keep them.
* A metric pickles by name: it unpickles as the same-named metric of
  the registry active at load time, so a component shipped to another
  process (a shard worker) records into that process's registry.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Sequence

from .tracing import Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "LATENCY_BUCKETS",
]


def _active_metric(kind: str, name: str, *boundaries: float):
    """The unpickled form of a metric: the active registry's handle."""
    from .runtime import get_registry

    registry = get_registry()
    if kind == "histogram":
        return registry.histogram(name, boundaries)
    return getattr(registry, kind)(name)


# General-purpose magnitude buckets (seconds when used with timers).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
# Finer low end for per-window online latency (§VI reports ms-scale).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot inc by {amount}")
        self.value += amount

    def __reduce__(self):
        return _active_metric, ("counter", self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-value metric (e.g. current loss, live template count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def __reduce__(self):
        return _active_metric, ("gauge", self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class _HistogramTimer:
    """Context manager that times a block into a histogram.

    This is the only place (besides spans) where the clock is read, and
    only because the caller explicitly started a timer.
    """

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: "Histogram", clock: Callable[[], float]):
        self._histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(self._clock() - self._start)
        return False


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` are the inclusive upper edges of the first
    ``len(boundaries)`` buckets; one overflow bucket catches the rest.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "sum",
                 "min", "max", "_clock")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS,
                 clock: Callable[[], float] | None = None):
        ordered = tuple(float(b) for b in boundaries)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name}: boundaries must be sorted and distinct")
        self.name = name
        self.boundaries = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._clock = clock or time.perf_counter

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def time(self) -> _HistogramTimer:
        """Explicitly start a timer whose duration is observed on exit."""
        return _HistogramTimer(self, self._clock)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __reduce__(self):
        return _active_metric, ("histogram", self.name, *self.boundaries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: n={self.count}, sum={self.sum:.6f})"


class MetricsRegistry:
    """Process-local registry of named metrics plus a tracer.

    One registry is typically installed globally via
    :func:`repro.obs.set_registry` / :func:`repro.obs.use_registry`;
    instrumented components capture their metric handles when they are
    constructed.  ``clock`` is injectable so tests can drive timers and
    spans deterministically.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock or time.perf_counter
        self.tracer = Tracer(clock=self.clock)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- handle accessors ------------------------------------------------
    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  boundaries: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, boundaries, clock=self.clock)
        )

    # -- introspection ---------------------------------------------------
    def metrics(self) -> dict[str, Counter | Gauge | Histogram]:
        """Name -> metric mapping (live objects, not copies)."""
        return dict(self._metrics)

    def find_spans(self, name: str):
        """All finished spans with this name, in completion order."""
        return self.tracer.find(name)

    def snapshot(self) -> dict[str, float | dict]:
        """Plain-data view of every metric (for quick asserts/printing)."""
        out: dict[str, float | dict] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
            else:
                out[name] = {
                    "count": metric.count, "sum": metric.sum,
                    "mean": metric.mean,
                }
        return out
