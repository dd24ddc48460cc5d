"""Runtime test helpers: fake clocks and synthetic multi-system streams."""

import dataclasses
from datetime import datetime
from types import SimpleNamespace

import pytest

from repro.logs.generator import LogGenerator


class FakeClock:
    """Manually advanced clock for deterministic scheduler/supervisor tests."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


def entry(message: str, timestamp: datetime | None = None) -> SimpleNamespace:
    """A minimal normalized log entry (what shard windows hold)."""
    return SimpleNamespace(
        message=message, timestamp=timestamp or datetime(2026, 1, 1),
    )


def multi_system_stream(systems: int = 6, lines: int = 120,
                        seed: int = 0) -> list:
    """Interleaved records across ``systems`` synthetic services.

    Service names follow ``svc-NN``; the router deals them round-robin
    in first-seen order, so they spread evenly over any shard count.
    """
    streams = []
    for index in range(systems):
        records = LogGenerator("thunderbird", seed=seed + index).generate(lines)
        streams.append([dataclasses.replace(record, system=f"svc-{index:02d}")
                       for record in records])
    return [record for group in zip(*streams) for record in group]


MODEL_SYSTEMS = ("bgl", "spirit", "thunderbird", "system_a", "system_b",
                 "system_c")


def six_system_model_stream(lines: int = 150, seed: int = 30) -> list:
    """Six real system dialects interleaved in timestamp order, dense
    enough in repeats that the model path's pattern gate emits reports.

    The router deals the six systems round-robin, three per shard at 2
    shards and one or two per shard at 4, so a multi-shard replay
    really splits the systems.
    """
    import heapq

    streams = [
        LogGenerator(system, seed=seed + index,
                     repeat_probability=0.6).generate(lines)
        for index, system in enumerate(MODEL_SYSTEMS)
    ]
    return list(heapq.merge(*streams, key=lambda record: record.timestamp))
