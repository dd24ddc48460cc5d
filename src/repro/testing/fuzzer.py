"""Seeded multi-system log-stream fuzzing with planted ground truth.

:class:`LogStreamFuzzer` generates the adversarial input side of the
harness: an interleaved stream of log records across several (logical)
systems, each speaking a configurable template *dialect* from the event
catalog, with **planted anomaly windows** — contiguous bursts of one
anomalous concept at fuzzer-chosen offsets — and optional **parameter
noise** that perturbs rendered messages the way real deployments drift
from their own templates (renamed hosts, re-cased tokens, extra fields).

Unlike :class:`repro.logs.generator.LogGenerator` (whose anomalies arrive
by rate), the fuzzer *returns its ground truth*: every record carries its
label and every planted burst is reported as a
:class:`PlantedAnomaly`, so invariant checkers can score any detector's
output (the label-recovery F1 floor) and can compute exactly which
windows a correct pipeline must flag.

Everything is a pure function of ``(config, seed)``: episode seeds print
in failure reports and one ``repro fuzz --episodes 1 --seed S`` replays
the exact stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ..logs.drift import _reword_message
from ..logs.events import EventKind, concepts_for_system
from ..logs.generator import VOLUME_STORM_CONCEPT, LogRecord
from ..logs.parameters import ParameterSampler
from ..logs.scenarios import ScenarioProfile, get_scenario
from ..logs.sequences import sliding_windows
from ..logs.systems import get_profile

__all__ = ["PlantedAnomaly", "FuzzedStream", "LogStreamFuzzer"]

# Filler tokens parameter noise may splice into a message (log lines in
# production sprout qualifiers the original template never had).
_NOISE_TOKENS = ("retrying", "verbose", "trace", "ack", "pid=7", "eom")


@dataclass(frozen=True)
class PlantedAnomaly:
    """Ground truth for one planted anomalous burst.

    ``start`` indexes the *system's own* line sequence (0-based), not the
    interleaved stream; windowing is per system, so this is the
    coordinate system invariant checkers need.
    """

    system: str
    start: int
    length: int
    concept: str


@dataclass
class FuzzedStream:
    """One fuzz episode: interleaved records plus full ground truth."""

    records: list[LogRecord]
    planted: list[PlantedAnomaly]
    seed: int
    systems: tuple[str, ...]
    lines_per_system: int

    def by_system(self) -> dict[str, list[LogRecord]]:
        """Records grouped by system, in per-system emission order."""
        grouped: dict[str, list[LogRecord]] = {system: [] for system in self.systems}
        for record in self.records:
            grouped[record.system].append(record)
        return grouped

    def expected_window_labels(self, window: int = 10, step: int = 5,
                               ) -> dict[str, list[bool]]:
        """Ground-truth verdict per completed window, per system.

        Windows by :func:`~repro.logs.sliding_windows`, which mirrors
        the runtime's windowing exactly (consecutive ``window``-sized
        views advanced by ``step``); a window is anomalous when any of
        its lines is.
        """
        return {system: [bool(sequence.label)
                         for sequence in sliding_windows(records, window, step)]
                for system, records in self.by_system().items()}


class LogStreamFuzzer:
    """Generates seeded fuzz episodes over the shared event catalog.

    Parameters
    ----------
    systems:
        Logical system names in the stream.  Values may be catalog
        dialects (``bgl``, ``spirit``, ...) or arbitrary names when
        ``dialects`` maps them to one — the runtime routes and windows by
        the logical name while messages speak the mapped dialect.
    dialects:
        Optional mapping logical name -> catalog dialect.
    lines_per_system:
        Lines generated per system before interleaving.
    anomaly_bursts:
        Planted bursts per system.
    burst_length:
        Inclusive (min, max) lines per planted burst.
    parameter_noise:
        Per-line probability of one message perturbation (digit jitter,
        token re-casing, filler-token insertion).
    scenario:
        Optional :mod:`repro.logs.scenarios` workload shape (name or
        profile): volume storms arrive as runs of *normal-looking* lines
        at storm rate labeled ``volume_storm``, template drift rewords
        messages with a position-ramped probability, seasonal cycles
        modulate inter-arrival times.  ``None``/``"steady"`` keeps the
        stream byte-identical to pre-scenario fuzzers.
    """

    def __init__(self, systems=("bgl", "spirit", "thunderbird"), *,
                 dialects: dict[str, str] | None = None,
                 lines_per_system: int = 120,
                 anomaly_bursts: int = 3,
                 burst_length: tuple[int, int] = (3, 6),
                 parameter_noise: float = 0.0,
                 scenario: ScenarioProfile | str | None = None,
                 start_time: datetime | None = None):
        if lines_per_system <= 0:
            raise ValueError("lines_per_system must be positive")
        if anomaly_bursts < 0:
            raise ValueError("anomaly_bursts must be non-negative")
        if not 0.0 <= parameter_noise <= 1.0:
            raise ValueError(f"parameter_noise must be in [0, 1], got {parameter_noise}")
        low, high = burst_length
        if low <= 0 or high < low:
            raise ValueError(f"invalid burst_length {burst_length}")
        self.systems = tuple(systems)
        if not self.systems:
            raise ValueError("at least one system is required")
        self.dialects = dict(dialects or {})
        self.lines_per_system = lines_per_system
        self.anomaly_bursts = anomaly_bursts
        self.burst_length = (low, high)
        self.parameter_noise = parameter_noise
        self.scenario = get_scenario(scenario)
        self.start_time = start_time or datetime(2024, 6, 1, 0, 0, 0)

    # ------------------------------------------------------------------
    def _dialect_of(self, system: str) -> str:
        return self.dialects.get(system, system)

    def _perturb(self, message: str, rng: np.random.Generator) -> str:
        """One noise operation: jitter a digit run, re-case a token, or
        splice in a filler token."""
        tokens = message.split(" ")
        if not tokens:
            return message
        op = int(rng.integers(3))
        index = int(rng.integers(len(tokens)))
        token = tokens[index]
        if op == 0 and any(ch.isdigit() for ch in token):
            tokens[index] = "".join(
                str(int(rng.integers(10))) if ch.isdigit() else ch for ch in token
            )
        elif op == 1:
            tokens[index] = token.upper() if token.islower() else token.lower()
        else:
            tokens.insert(index, _NOISE_TOKENS[int(rng.integers(len(_NOISE_TOKENS)))])
        return " ".join(tokens)

    def _plant_offsets(self, rng: np.random.Generator,
                       lengths: list[int]) -> list[int]:
        """Non-overlapping burst start offsets (padded by one normal line)."""
        offsets: list[int] = []
        taken: set[int] = set()
        for length in lengths:
            limit = self.lines_per_system - length
            if limit <= 0:
                break
            for _attempt in range(64):
                start = int(rng.integers(0, limit))
                span = set(range(start - 1, start + length + 1))
                if not span & taken:
                    offsets.append(start)
                    taken |= set(range(start, start + length))
                    break
        return offsets

    def _system_stream(self, system: str, seed_key: tuple,
                       ) -> tuple[list[LogRecord], list[PlantedAnomaly]]:
        rng = np.random.default_rng(seed_key)
        dialect = self._dialect_of(system)
        try:
            profile = get_profile(dialect)
        except KeyError as exc:
            raise ValueError(
                f"unknown dialect {dialect!r} for system {system!r}; "
                "map it via dialects= or use a catalog system") from exc
        normal = concepts_for_system(dialect, EventKind.NORMAL)
        anomalous = concepts_for_system(dialect, EventKind.ANOMALOUS)
        if not normal or not anomalous:
            raise ValueError(f"dialect {dialect!r} lacks normal or anomalous concepts")
        params = ParameterSampler(rng)
        # Zipf-ish popularity over normal concepts, as in the generator.
        ranks = np.arange(1, len(normal) + 1, dtype=np.float64)
        weights = (1.0 / ranks) / (1.0 / ranks).sum()

        low, high = self.burst_length
        lengths = [int(rng.integers(low, high + 1))
                   for _ in range(self.anomaly_bursts)]
        offsets = self._plant_offsets(rng, lengths)
        planted = []
        burst_concept: dict[int, str] = {}
        anomalous_lines: set[int] = set()
        for start, length in zip(offsets, lengths):
            concept = anomalous[int(rng.integers(len(anomalous)))]
            planted.append(PlantedAnomaly(
                system=system, start=start, length=length, concept=concept.name,
            ))
            for line in range(start, start + length):
                burst_concept[line] = concept.name
                anomalous_lines.add(line)

        concept_by_name = {c.name: c for c in anomalous}
        scenario = self.scenario
        clock = self.start_time
        records: list[LogRecord] = []
        denominator = max(self.lines_per_system - 1, 1)
        for line in range(self.lines_per_system):
            t = line / denominator
            rate = scenario.rate_multiplier(t) if scenario is not None else 1.0
            clock = clock + timedelta(seconds=float(rng.exponential(0.8 / rate)))
            is_anomalous = line in anomalous_lines
            in_storm = (scenario is not None and scenario.in_storm(t)
                        and not is_anomalous)
            if is_anomalous:
                concept = concept_by_name[burst_concept[line]]
                concept_name = concept.name
                severity = profile.severity_labels[1]
            else:
                # Storm lines are ordinary traffic arriving too fast:
                # normal concept, normal severity, anomalous label.
                concept = normal[int(rng.choice(len(normal), p=weights))]
                concept_name = VOLUME_STORM_CONCEPT if in_storm else concept.name
                severity = profile.severity_labels[0]
            message = params.fill(concept.phrases[dialect])
            if scenario is not None:
                probability = scenario.drift_probability(t)
                if probability > 0.0:
                    message = _reword_message(message, rng, probability)
            if self.parameter_noise > 0 and rng.random() < self.parameter_noise:
                message = self._perturb(message, rng)
            host = f"{profile.host_prefix}{int(rng.integers(0, 512)):03d}"
            stamp = clock.strftime(profile.timestamp_format)
            records.append(LogRecord(
                timestamp=clock,
                system=system,
                host=host,
                severity=severity,
                message=message,
                raw=f"{stamp} {host} {severity} {message}",
                is_anomalous=is_anomalous or in_storm,
                concept=concept_name,
            ))
        return records, planted

    # ------------------------------------------------------------------
    def generate(self, seed: int = 0) -> FuzzedStream:
        """One fuzz episode: a pure function of the fuzzer config + seed."""
        streams: list[list[LogRecord]] = []
        planted: list[PlantedAnomaly] = []
        for index, system in enumerate(self.systems):
            records, bursts = self._system_stream(system, (seed, index))
            streams.append(records)
            planted.extend(bursts)
        # Seeded interleave: repeatedly pick a source weighted by how many
        # lines it still holds, so systems mix the way concurrent streams
        # arrive at a collector (per-system order is preserved).
        rng = np.random.default_rng((seed, len(self.systems), 104729))
        heads = [0] * len(streams)
        merged: list[LogRecord] = []
        remaining = sum(len(stream) for stream in streams)
        while remaining:
            counts = np.array([len(stream) - head
                               for stream, head in zip(streams, heads)],
                              dtype=np.float64)
            pick = int(rng.choice(len(streams), p=counts / counts.sum()))
            merged.append(streams[pick][heads[pick]])
            heads[pick] += 1
            remaining -= 1
        return FuzzedStream(
            records=merged,
            planted=sorted(planted, key=lambda p: (p.system, p.start)),
            seed=seed,
            systems=self.systems,
            lines_per_system=self.lines_per_system,
        )
