"""Workload definitions and their seeded inputs.

The served stream is a pure function of the ``--seed`` the benchmark
receives.  The fit corpus (the mature systems' history plus the new
system's day-0 sample) and the reference stream that alert F1 is scored
on are fixed, so set-up does the same work and F1 reads the same on every
run of one commit.  The program only ever sees the generated records.
Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

SYSTEMS = ("bgl", "spirit", "thunderbird", "system_a", "system_b", "system_c")
# The mature systems the detector transfers from, and the new system it is
# brought online for (a little day-0 labelled data).
SOURCES = ("bgl", "spirit")
TARGET = "thunderbird"
FIT_SOURCE_SEQUENCES = 200
FIT_TARGET_SEQUENCES = 40
FIT_EPOCHS = 6
FIT_SEED = 0
# Generator seeds of the reference stream; served streams derive theirs
# from --seed as ``(seed * 1024 + part) * 7919 + 101 + i``, far below this.
REFERENCE_STREAM_SEED = 2 ** 40

WINDOW = 10
STEP = 5
MAX_BATCH = 16
MAX_LATENCY = 0.05
DETECTORS = "ewma,lof,rules,model:max"


@dataclass(frozen=True)
class Workload:
    name: str
    worker: str               # "model" or "ensemble"
    executor: str             # "sync" or "process"
    shards: int
    repeat_probability: float
    scenario: str | None
    # Fixed offered rate (records/s) of the open-loop paced phases: half
    # the capacity measured for serve-paced on a 2-core host, and a fifth
    # to a sixth for the in-process paths, which score inline on the
    # sender's thread, so their latency swings with every slow spell of a
    # shared host when they run busier.
    paced_rate: float
    # Share of a pass's stream time spent in paced phases, and how many
    # paced phases of one stream prefix a pass spreads that over.  More,
    # shorter phases let the latency estimate drop the host's slow spells.
    paced_share: float
    paced_phases: int
    # Replay workloads also replay streams closed-loop, in many short
    # samples, for capacity; this is roughly that capacity, used only to
    # size the samples.
    replay_rate: float | None = None

    @property
    def replay(self) -> bool:
        return self.replay_rate is not None


WORKLOADS = {
    "replay-model": Workload(
        name="replay-model", worker="model", executor="sync", shards=1,
        repeat_probability=0.55, scenario=None, paced_rate=700.0,
        paced_share=0.5, paced_phases=2, replay_rate=4500.0),
    "ensemble-burst": Workload(
        name="ensemble-burst", worker="ensemble", executor="sync", shards=1,
        repeat_probability=0.55, scenario="volume-burst", paced_rate=350.0,
        paced_share=0.6, paced_phases=1, replay_rate=1750.0),
    "serve-paced": Workload(
        name="serve-paced", worker="model", executor="process", shards=2,
        repeat_probability=0.9, scenario=None, paced_rate=2500.0,
        paced_share=1.0, paced_phases=2),
}

# One replay sample takes about this long; a run takes many, spread over
# its passes, and reports their median.
REPLAY_SAMPLE_S = 0.35
# Stream parts a pass may use (``make_stream``'s ``part`` is
# ``pass * PARTS_PER_PASS + k``).
PARTS_PER_PASS = 16


@dataclass(frozen=True)
class PassSizes:
    paced: int       # records of one paced phase
    replay: int      # records of one replay sample
    replays: int     # replay samples per pass; 0 for serve-paced

    @property
    def first(self) -> int:
        """Records of the pass's first stream: the paced phases serve its
        prefix, and it is replayed first and last."""
        return max(self.paced, self.replay)


def pass_sizes(workload: Workload, seconds: float, passes: int) -> PassSizes:
    """Sizes of one pass.  The paced phases take ``paced_share`` of the
    pass's part of ``seconds``; replay samples of about
    ``REPLAY_SAMPLE_S`` each take the rest."""
    budget = seconds / passes
    floor = len(SYSTEMS) * 4 * WINDOW
    paced = max(floor, int(round(workload.paced_rate * budget * workload.paced_share
                                 / workload.paced_phases)))
    if not workload.replay:
        return PassSizes(paced=paced, replay=0, replays=0)
    replay = max(floor, int(round(workload.replay_rate * REPLAY_SAMPLE_S)))
    replays = int(round(budget * (1 - workload.paced_share) / REPLAY_SAMPLE_S))
    return PassSizes(paced=paced, replay=replay,
                     replays=min(PARTS_PER_PASS - 1, max(2, replays)))


def fit_config():
    from repro.config import LogSynergyConfig

    # The reduced FAST_CONFIG widths of the table benchmarks, 6 epochs.
    return LogSynergyConfig(
        d_model=32, num_heads=4, num_layers=2, d_ff=64, feature_dim=16,
        embedding_dim=64, epochs=FIT_EPOCHS, batch_size=64, learning_rate=5e-4,
    )


def fit_inputs():
    """``(sources, target_sequences)`` for fitting the new system."""
    from repro.logs import LogGenerator, sliding_windows

    def sequences(system: str, count: int, offset: int):
        records = LogGenerator(system, seed=FIT_SEED * 1009 + offset).generate(
            (count - 1) * STEP + WINDOW)
        return sliding_windows(records, window=WINDOW, step=STEP)[:count]

    sources = {name: sequences(name, FIT_SOURCE_SEQUENCES, index)
               for index, name in enumerate(SOURCES)}
    return sources, sequences(TARGET, FIT_TARGET_SEQUENCES, len(SOURCES))


def make_stream(workload: Workload, seed: int | None, count: int,
                part: int = 0) -> list:
    """One interleaved six-system stream of ``count`` records, merged in
    log-timestamp order.  Each stream of a run is its own ``part`` of the
    seed; ``seed=None`` gives the fixed reference stream."""
    from repro.logs import LogGenerator

    if not 0 <= part < 1024:
        raise ValueError(f"part must be in [0, 1024), got {part}")
    base = (REFERENCE_STREAM_SEED if seed is None
            else (seed * 1024 + part) * 7919 + 101)
    per_system = count // len(SYSTEMS)
    streams = [
        LogGenerator(system, seed=base + index,
                     repeat_probability=workload.repeat_probability,
                     scenario=workload.scenario).generate(per_system)
        for index, system in enumerate(SYSTEMS)
    ]
    return list(heapq.merge(*streams, key=lambda record: record.timestamp))
