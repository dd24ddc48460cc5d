"""No-op observability: the default when nothing installed a registry.

Every handle is a shared singleton whose methods do nothing and touch no
clock, so instrumented hot paths pay only an attribute call when
observability is off.
"""

from __future__ import annotations

__all__ = ["NullCounter", "NullGauge", "NullHistogram", "NullTracer",
           "NullRegistry", "NULL_REGISTRY"]


class NullCounter:
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullHistogram:
    __slots__ = ()
    name = "null"
    boundaries: tuple[float, ...] = ()
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    @property
    def bucket_counts(self) -> list[int]:
        return []

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        # Never reads the clock: disabled observability costs nothing.
        return _NULL_TIMER


class _NullSpan:
    __slots__ = ()
    name = "null"
    attributes: dict = {}
    children: list = []
    start = 0.0
    duration = 0.0
    parent_name = None

    def set(self, key: str, value) -> None:
        pass

    def walk(self):
        yield self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    __slots__ = ()
    roots: list = []

    def span(self, name: str, **attributes) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def find(self, name: str) -> list:
        return []

    def span_names(self) -> list[str]:
        return []


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()
_NULL_TRACER = NullTracer()


class NullRegistry:
    """Registry façade that hands out shared no-op handles."""

    __slots__ = ()
    enabled = False
    tracer = _NULL_TRACER

    @staticmethod
    def clock() -> float:
        return 0.0

    def counter(self, name: str) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, boundaries=()) -> NullHistogram:
        return _NULL_HISTOGRAM

    def metrics(self) -> dict:
        return {}

    def find_spans(self, name: str) -> list:
        return []

    def snapshot(self) -> dict:
        return {}


NULL_REGISTRY = NullRegistry()
