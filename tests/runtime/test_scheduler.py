"""Micro-batch scheduler: size trigger, latency trigger, chunk invariance."""

import random

import pytest

from repro.runtime import MicroBatchScheduler, PendingWindow


def pending(system: str, index: int, enqueued_at: float = 0.0) -> PendingWindow:
    return PendingWindow(system=system, index=index, window=[],
                         pattern=(index,), enqueued_at=enqueued_at)


class TestSizeTrigger:
    def test_full_lane_flushes_exact_chunk(self):
        scheduler = MicroBatchScheduler(max_batch=4)
        for index in range(4):
            scheduler.add(pending("svc", index))
        (batch,) = scheduler.ready_batches(now=0.0)
        assert [p.index for p in batch] == [0, 1, 2, 3]
        assert len(scheduler) == 0

    def test_partial_lane_waits_without_latency_budget(self):
        scheduler = MicroBatchScheduler(max_batch=4)
        scheduler.add(pending("svc", 0))
        assert scheduler.ready_batches(now=1e9) == []
        assert len(scheduler) == 1

    def test_multiple_chunks_flush_in_arrival_order(self):
        scheduler = MicroBatchScheduler(max_batch=2)
        for index in range(6):
            scheduler.add(pending("svc", index))
        batches = scheduler.ready_batches(now=0.0)
        assert [[p.index for p in batch] for batch in batches] == \
            [[0, 1], [2, 3], [4, 5]]

    def test_lanes_are_per_system(self):
        scheduler = MicroBatchScheduler(max_batch=2)
        scheduler.add(pending("a", 0))
        scheduler.add(pending("b", 0))
        # Two half-full lanes: nothing is due even though 2 windows wait.
        assert scheduler.ready_batches(now=0.0) == []


class TestLatencyTrigger:
    def test_expired_lane_flushes_partial_remainder(self, fake_clock):
        scheduler = MicroBatchScheduler(max_batch=4, max_latency=0.5)
        scheduler.add(pending("svc", 0, enqueued_at=fake_clock()))
        scheduler.add(pending("svc", 1, enqueued_at=fake_clock()))
        assert scheduler.ready_batches(now=fake_clock()) == []
        fake_clock.advance(0.5)
        (batch,) = scheduler.ready_batches(now=fake_clock())
        assert [p.index for p in batch] == [0, 1]

    def test_expiry_flushes_full_chunks_before_the_partial(self, fake_clock):
        scheduler = MicroBatchScheduler(max_batch=2, max_latency=1.0)
        for index in range(5):
            scheduler.add(pending("svc", index, enqueued_at=fake_clock()))
        fake_clock.advance(2.0)
        batches = scheduler.ready_batches(now=fake_clock())
        # Chunk boundaries identical to what the size trigger would emit,
        # plus the timed-out remainder.
        assert [[p.index for p in batch] for batch in batches] == \
            [[0, 1], [2, 3], [4]]

    def test_one_expired_head_flushes_every_lane_oldest_first(self, fake_clock):
        scheduler = MicroBatchScheduler(max_batch=2, max_latency=0.5)
        scheduler.add(pending("b", 0, enqueued_at=fake_clock()))
        fake_clock.advance(0.1)
        scheduler.add(pending("c", 0, enqueued_at=fake_clock()))
        scheduler.add(pending("a", 0, enqueued_at=fake_clock()))
        scheduler.add(pending("c", 1, enqueued_at=fake_clock()))
        scheduler.add(pending("c", 2, enqueued_at=fake_clock()))
        # c's full chunk goes on size alone; b and a keep waiting.
        assert [[p.window_id for p in batch]
                for batch in scheduler.ready_batches(now=fake_clock())] == \
            [["c:0", "c:1"]]
        fake_clock.advance(0.4)
        # Only b's head is due, yet every lane's remainder goes with it:
        # b (oldest head) first, then a and c, whose heads tie and
        # break by system name.
        batches = scheduler.ready_batches(now=fake_clock())
        assert [[p.window_id for p in batch] for batch in batches] == \
            [["b:0"], ["a:0"], ["c:2"]]
        assert len(scheduler) == 0
        assert scheduler.oldest_deadline() is None

    def test_expiry_keeps_full_chunks_whole(self, fake_clock):
        scheduler = MicroBatchScheduler(max_batch=2, max_latency=0.5)
        scheduler.add(pending("z", 0, enqueued_at=fake_clock()))
        fake_clock.advance(0.1)
        for index in range(3):
            scheduler.add(pending("y", index, enqueued_at=fake_clock()))
        fake_clock.advance(0.4)
        assert [[p.window_id for p in batch]
                for batch in scheduler.ready_batches(now=fake_clock())] == \
            [["z:0"], ["y:0", "y:1"], ["y:2"]]

    def test_oldest_deadline_tracks_earliest_head(self, fake_clock):
        scheduler = MicroBatchScheduler(max_batch=8, max_latency=0.25)
        assert scheduler.oldest_deadline() is None
        scheduler.add(pending("a", 0, enqueued_at=10.0))
        scheduler.add(pending("b", 0, enqueued_at=5.0))
        assert scheduler.oldest_deadline() == pytest.approx(5.25)

    def test_no_deadline_without_latency_budget(self):
        scheduler = MicroBatchScheduler(max_batch=8)
        scheduler.add(pending("a", 0, enqueued_at=10.0))
        assert scheduler.oldest_deadline() is None


class _ReferenceScheduler:
    """The scheduler without its nothing-due shortcut: every
    ``ready_batches`` call walks every lane.  Once the oldest head has
    waited ``max_latency`` every lane flushes its remainder, oldest
    head first; otherwise full chunks flush in sorted lane order."""

    def __init__(self, max_batch, max_latency):
        self.max_batch = max_batch
        self.max_latency = max_latency
        self.lanes = {}

    def add(self, window):
        self.lanes.setdefault(window.system, []).append(window)

    def _pop(self, lane, include_partial):
        batches = []
        while len(lane) >= self.max_batch:
            batches.append(lane[:self.max_batch])
            del lane[:self.max_batch]
        if include_partial and lane:
            batches.append(lane[:])
            lane.clear()
        return batches

    def ready_batches(self, now):
        waiting = [system for system in sorted(self.lanes)
                   if self.lanes[system]]
        heads = [self.lanes[system][0].enqueued_at for system in waiting]
        if (self.max_latency is not None and heads
                and now - min(heads) >= self.max_latency):
            waiting.sort(key=lambda system: self.lanes[system][0].enqueued_at)
            return [chunk for system in waiting
                    for chunk in self._pop(self.lanes[system], True)]
        batches = []
        for system in waiting:
            batches.extend(self._pop(self.lanes[system], False))
        return batches

    def drain(self):
        batches = []
        for system in sorted(self.lanes):
            batches.extend(self._pop(self.lanes[system], True))
        return batches


class TestNothingDueShortcut:
    @pytest.mark.parametrize("seed", range(20))
    def test_batches_match_the_full_walk(self, seed):
        """Random adds, clock steps, polls and drains: the same batches,
        in the same order, as walking every lane on every call."""
        rng = random.Random(seed)
        max_batch = rng.choice([1, 2, 3, 4, 16])
        max_latency = rng.choice([None, 0.0, 0.05, 0.3])
        fast = MicroBatchScheduler(max_batch, max_latency)
        reference = _ReferenceScheduler(max_batch, max_latency)
        systems = [f"svc-{index}" for index in range(rng.randint(1, 6))]
        ordinals = dict.fromkeys(systems, 0)
        now = 0.0
        for _step in range(400):
            action = rng.random()
            if action < 0.6:
                system = rng.choice(systems)
                window = pending(system, ordinals[system], enqueued_at=now)
                ordinals[system] += 1
                fast.add(window)
                reference.add(window)
            elif action < 0.97:
                now += rng.choice([0.0, 0.001, 0.01, 0.04, 0.2])
                got = fast.ready_batches(now)
                want = reference.ready_batches(now)
                assert [[p.window_id for p in b] for b in got] == \
                    [[p.window_id for p in b] for b in want]
            else:
                assert fast.drain() == reference.drain()
            assert len(fast) == sum(map(len, reference.lanes.values()))


class TestDrain:
    def test_drain_flushes_partials_in_system_order(self):
        scheduler = MicroBatchScheduler(max_batch=4)
        scheduler.add(pending("zeta", 0))
        scheduler.add(pending("alpha", 0))
        batches = scheduler.drain()
        assert [batch[0].system for batch in batches] == ["alpha", "zeta"]
        assert len(scheduler) == 0


class TestValidation:
    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch=4, max_latency=-1.0)

    def test_window_id_format(self):
        assert pending("svc", 7).window_id == "svc:7"
