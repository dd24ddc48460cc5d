"""Shard queue backpressure policies and shed accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    OFFER_DROPPED, OFFER_FULL, OFFER_OK, OFFER_REJECTED, ShardQueue,
)


class TestAdmission:
    def test_fifo_order(self):
        queue = ShardQueue(10)
        for value in range(5):
            assert queue.try_offer(value) == OFFER_OK
        assert queue.poll(10) == [0, 1, 2, 3, 4]

    def test_block_policy_reports_full_without_shedding(self):
        queue = ShardQueue(2, policy="block")
        assert queue.try_offer("a") == OFFER_OK
        assert queue.try_offer("b") == OFFER_OK
        assert queue.try_offer("c") == OFFER_FULL
        assert queue.total_rejected == 0
        assert queue.total_dropped == 0
        assert queue.poll(10) == ["a", "b"]  # nothing was lost

    def test_reject_policy_sheds_the_new_record(self):
        queue = ShardQueue(2, policy="reject")
        queue.try_offer("a")
        queue.try_offer("b")
        assert queue.try_offer("c") == OFFER_REJECTED
        assert queue.total_rejected == 1
        assert queue.poll(10) == ["a", "b"]

    def test_drop_oldest_policy_evicts_the_head(self):
        queue = ShardQueue(2, policy="drop-oldest")
        queue.try_offer("a")
        queue.try_offer("b")
        assert queue.try_offer("c") == OFFER_DROPPED
        assert queue.total_dropped == 1
        assert queue.poll(10) == ["b", "c"]

    def test_offered_counter_counts_admissions(self):
        queue = ShardQueue(1, policy="reject")
        queue.try_offer("a")
        queue.try_offer("b")
        assert queue.total_offered == 2


class TestPolling:
    def test_poll_respects_max_items(self):
        queue = ShardQueue(10)
        for value in range(6):
            queue.try_offer(value)
        assert queue.poll(4) == [0, 1, 2, 3]
        assert len(queue) == 2

    @pytest.mark.parametrize("bad", [0, -3])
    def test_poll_rejects_non_positive_max_items(self, bad):
        with pytest.raises(ValueError):
            ShardQueue(4).poll(bad)

    def test_peek_is_non_destructive(self):
        queue = ShardQueue(4)
        assert queue.peek() is None
        queue.try_offer("a")
        assert queue.peek() == "a"
        assert len(queue) == 1


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ShardQueue(0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown backpressure policy"):
            ShardQueue(4, policy="spill")


class TestProperties:
    @given(st.lists(st.integers(), max_size=200), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_reject_keeps_admitted_items_in_fifo_order(self, items, capacity):
        queue = ShardQueue(capacity, policy="reject")
        admitted = [item for item in items if queue.try_offer(item) == OFFER_OK]
        assert queue.poll(len(items) + 1) == admitted == items[:capacity]

    @given(st.lists(st.integers(), max_size=100), st.integers(1, 20),
           st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_offered_is_admitted_plus_rejected(self, items, capacity, poll_size):
        queue = ShardQueue(capacity, policy="reject")
        admitted = sum(1 for item in items if queue.try_offer(item) == OFFER_OK)
        polled = []
        while len(queue):
            polled.extend(queue.poll(poll_size))
        assert len(polled) == admitted
        assert queue.total_offered == len(items)
        assert queue.total_offered == admitted + queue.total_rejected

    @given(st.integers(1, 30), st.sampled_from(["reject", "drop-oldest"]))
    @settings(max_examples=30, deadline=None)
    def test_depth_never_exceeds_capacity(self, capacity, policy):
        queue = ShardQueue(capacity, policy=policy)
        for item in range(capacity * 3):
            queue.try_offer(item)
            assert len(queue) <= capacity

    @given(st.lists(st.integers(), max_size=200), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_drop_oldest_keeps_the_newest_items(self, items, capacity):
        queue = ShardQueue(capacity, policy="drop-oldest")
        for item in items:
            queue.try_offer(item)
        assert queue.poll(len(items) + 1) == items[-capacity:]
        assert queue.total_dropped == max(0, len(items) - capacity)
