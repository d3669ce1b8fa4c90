"""Unit tests for repro.cache: set-assoc caches, hierarchy, predictor."""

import pytest

from repro.cache.hierarchy import CacheSystem
from repro.cache.predictor import HitMissPredictor
from repro.cache.sram import CacheConfig, SetAssocCache
from repro.errors import ConfigurationError
from repro.experiments.common import paper_machine


def tiny_cache(capacity=512, assoc=2, line=64):
    return SetAssocCache(CacheConfig(capacity, assoc, line))


def materialized_sets(cache):
    """Sets ``cache`` has allocated; the others are still ``None`` slots."""
    return sum(cache_set is not None for cache_set in cache._sets)


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(32 * 1024, 8, 64)
        assert config.line_count == 512
        assert config.set_count == 64

    def test_rejects_bad_division(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 3, 64)  # 16 lines not divisible into 3 ways

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 1, 64)


class TestSetAssocCache:
    def test_cold_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True

    def test_counters(self):
        cache = tiny_cache()
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.accesses == 3

    def test_hit_rate(self):
        cache = tiny_cache()
        assert cache.hit_rate() == 0.0
        cache.access(1)
        cache.access(1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = tiny_cache(capacity=128, assoc=2, line=64)  # 1 set, 2 ways
        cache.access(0)
        cache.access(1)
        cache.access(2)  # evicts 0 (LRU)
        assert cache.contains(1)
        assert not cache.contains(0)
        assert cache.evictions == 1

    def test_access_refreshes_lru(self):
        cache = tiny_cache(capacity=128, assoc=2, line=64)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 1 becomes LRU
        cache.access(2)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_contains_does_not_mutate(self):
        cache = tiny_cache()
        cache.access(1)
        hits = cache.hits
        cache.contains(1)
        assert cache.hits == hits

    def test_fill_without_counting(self):
        cache = tiny_cache()
        cache.fill(9)
        assert cache.accesses == 0
        assert cache.contains(9)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(3)
        assert cache.invalidate(3) is True
        assert cache.invalidate(3) is False
        assert not cache.contains(3)

    def test_sets_isolate_conflicts(self):
        cache = tiny_cache(capacity=256, assoc=2, line=64)  # 2 sets
        cache.access(0)  # set 0
        cache.access(2)  # set 0
        cache.access(1)  # set 1 - must not evict set 0 blocks
        assert cache.contains(0) and cache.contains(2)

    def test_resident_blocks(self):
        cache = tiny_cache()
        for block in (1, 2, 3):
            cache.access(block)
        assert sorted(cache.resident_blocks()) == [1, 2, 3]

    def test_clear(self):
        cache = tiny_cache()
        cache.access(1)
        cache.clear()
        assert cache.accesses == 0
        assert not cache.contains(1)


class TestCacheSystem:
    def make(self):
        return CacheSystem(
            4,
            CacheConfig(512, 2, 64),
            CacheConfig(4096, 4, 64),
        )

    def test_load_fills_both_levels(self):
        system = self.make()
        outcome = system.load(0, block=7, home_bank=2)
        assert not outcome.l1_hit and not outcome.l2_hit
        assert outcome.went_to_memory
        outcome2 = system.load(0, block=7, home_bank=2)
        assert outcome2.l1_hit

    def test_l2_shared_across_nodes(self):
        system = self.make()
        system.load(0, block=7, home_bank=2)
        outcome = system.load(1, block=7, home_bank=2)  # L1 miss, L2 hit
        assert not outcome.l1_hit and outcome.l2_hit

    def test_home_node_reported(self):
        system = self.make()
        assert system.load(0, 1, home_bank=3).home_node == 3

    def test_hit_rates(self):
        system = self.make()
        system.load(0, 1, 0)
        system.load(0, 1, 0)
        assert system.l1_hit_rate() == pytest.approx(0.5)

    def test_bank_to_node_validation(self):
        with pytest.raises(ConfigurationError):
            CacheSystem(2, CacheConfig(512, 2), CacheConfig(512, 2), [0, 7])

    def test_reset_stats_keeps_contents(self):
        system = self.make()
        system.load(0, 1, 0)
        system.reset_stats()
        assert system.l1s[0].accesses == 0
        assert system.l1s[0].contains(1)

    def test_clear_drops_contents(self):
        system = self.make()
        system.load(0, 1, 0)
        system.clear()
        assert not system.l1s[0].contains(1)


class TestCacheSetAllocation:
    """A set is allocated on its first fill, never up front."""

    def test_mesh16_system_allocates_sets_on_first_fill(self):
        machine = paper_machine(mesh_cols=16, mesh_rows=16)
        system = CacheSystem(
            machine.node_count,
            machine.l1_config,
            machine.l2_config,
            machine.bank_to_node,
        )
        caches = system.l1s + system.l2_banks
        assert sum(cache.config.set_count for cache in caches) == 266_240
        assert all(materialized_sets(cache) == 0 for cache in caches)
        # Lookups and invalidations of absent blocks allocate nothing.
        assert not system.l1s[0].contains(7)
        assert not system.l2_banks[0].invalidate(7)
        assert materialized_sets(system.l1s[0]) == 0
        assert materialized_sets(system.l2_banks[0]) == 0
        for k, block in enumerate(range(0, 40 * 1021, 1021), start=1):
            system.load(k % 3, block, home_bank=block % 2)
            assert all(materialized_sets(cache) <= k for cache in caches)
        assert sum(materialized_sets(cache) for cache in caches) <= 2 * 40
        system.clear()
        assert all(materialized_sets(cache) == 0 for cache in caches)


class TestHitMissPredictor:
    def test_cold_predicts_miss(self):
        assert HitMissPredictor().predict(0) is False

    def test_learns_hits(self):
        predictor = HitMissPredictor()
        predictor.train(0, True)
        assert predictor.predict(0) is True

    def test_two_bit_hysteresis(self):
        predictor = HitMissPredictor()
        for _ in range(3):
            predictor.train(0, True)  # saturate to strong hit
        predictor.train(0, False)     # one miss: still predicts hit
        assert predictor.predict(0) is True
        predictor.train(0, False)
        assert predictor.predict(0) is False

    def test_regions_independent(self):
        predictor = HitMissPredictor(region_bits=12)
        predictor.train(0, True)
        assert predictor.predict(1 << 12) is False

    def test_same_region_shares_state(self):
        predictor = HitMissPredictor(region_bits=12)
        predictor.train(0, True)
        assert predictor.predict(100) is True  # same 4KB region

    def test_accuracy_tracking(self):
        predictor = HitMissPredictor()
        predictor.predict_and_train(0, False)  # predicted miss, was miss: ok
        predictor.predict_and_train(0, True)   # predicted miss, was hit: wrong
        assert predictor.stats.correct == 1
        assert predictor.stats.incorrect == 1
        assert predictor.accuracy() == pytest.approx(0.5)

    def test_reset(self):
        predictor = HitMissPredictor()
        predictor.predict_and_train(0, True)
        predictor.reset()
        assert predictor.accuracy() == 0.0
        assert predictor.predict(0) is False
