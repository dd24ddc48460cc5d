"""Shard router: sticky balanced assignment, full coverage, validation."""

from collections import Counter

import pytest

from repro.runtime import ShardRouter


class TestShardRouter:
    def test_deterministic_across_instances(self):
        systems = [f"svc-{i:02d}" for i in range(32)] + ["bgl", "spirit"]
        first = ShardRouter(4)
        second = ShardRouter(4)
        assert [first.shard_of(s) for s in systems] == \
            [second.shard_of(s) for s in systems]

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_balances_six_systems(self, shards):
        systems = ["bgl", "spirit", "thunderbird", "system_a", "system_b",
                   "system_c"]
        router = ShardRouter(shards)
        load = Counter(router.shard_of(system) for system in systems)
        assert set(load) == set(range(shards))
        assert max(load.values()) - min(load.values()) <= 1

    def test_deals_shards_in_first_seen_order(self):
        router = ShardRouter(3)
        assert [router.shard_of(s) for s in "dcbadcba"] == \
            [0, 1, 2, 0, 0, 1, 2, 0]

    def test_all_records_of_a_system_land_on_one_shard(self):
        router = ShardRouter(3)
        assignments = {router.shard_of("auth-service") for _ in range(100)}
        assert len(assignments) == 1

    def test_every_shard_reachable(self):
        router = ShardRouter(4)
        hit = {router.shard_of(f"svc-{i:02d}") for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_single_shard_maps_everything_to_zero(self):
        router = ShardRouter(1)
        assert router.shard_of("anything") == 0

    @pytest.mark.parametrize("shards", [0, -1])
    def test_rejects_non_positive_shard_count(self, shards):
        with pytest.raises(ValueError):
            ShardRouter(shards)
