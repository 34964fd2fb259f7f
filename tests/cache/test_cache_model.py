"""Tests for the set-associative cache model and its test oracle's LRU policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CoherenceState, SetAssociativeCache
from repro.config import CacheConfig

from reference_model import LruPolicy

SMALL = CacheConfig(size_bytes=1024, associativity=2)  # 16 frames, 8 sets


def make_cache(config=SMALL):
    return SetAssociativeCache(config)


class TestGeometry:
    def test_frames_and_sets(self):
        cache = make_cache()
        assert cache.num_frames == 16
        assert cache.num_sets == 8
        assert cache.num_ways == 2

    def test_set_index_is_modulo(self):
        cache = make_cache()
        assert cache.set_index(0) == 0
        assert cache.set_index(9) == 1


class TestFillAndProbe:
    def test_fill_then_probe(self):
        cache = make_cache()
        result = cache.fill(0x10, state=CoherenceState.EXCLUSIVE)
        assert not result.hit
        assert result.victim_address is None
        block = cache.probe(0x10)
        assert block is not None
        assert block.state is CoherenceState.EXCLUSIVE

    def test_fill_existing_block_is_a_hit_without_eviction(self):
        cache = make_cache()
        cache.fill(0x10)
        result = cache.fill(0x10, state=CoherenceState.MODIFIED)
        assert result.hit
        assert cache.state_of(0x10) is CoherenceState.MODIFIED
        assert len(cache) == 1

    def test_fill_full_set_evicts_lru(self):
        cache = make_cache()
        a, b, c = 0, 8, 16  # all map to set 0
        cache.fill(a)
        cache.fill(b)
        cache.touch(a)  # make b the LRU
        result = cache.fill(c)
        assert result.victim_address == b
        assert cache.contains(a)
        assert cache.contains(c)
        assert not cache.contains(b)

    def test_dirty_victim_reported(self):
        cache = make_cache()
        a, b, c = 0, 8, 16
        cache.fill(a, dirty=True)
        cache.fill(b)
        cache.touch(b)
        result = cache.fill(c)
        assert result.victim_address == a
        assert result.victim_dirty

    def test_occupancy(self):
        cache = make_cache()
        for block in range(4):
            cache.fill(block)
        assert cache.occupancy() == pytest.approx(4 / 16)

    def test_resident_addresses(self):
        cache = make_cache()
        blocks = {3, 12, 21}  # distinct sets, so nothing is evicted
        for block in blocks:
            cache.fill(block)
        assert set(cache.resident_addresses()) == blocks


class TestTouch:
    def test_touch_hit_and_miss_statistics(self):
        cache = make_cache()
        cache.fill(0x20)
        assert cache.touch(0x20) is True
        assert cache.touch(0x21) is False
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_write_touch_marks_dirty(self):
        cache = make_cache()
        cache.fill(0x20)
        cache.touch(0x20, write=True)
        assert cache.probe(0x20).dirty

    def test_touch_updates_recency(self):
        cache = make_cache()
        a, b, c = 0, 8, 16
        cache.fill(a)
        cache.fill(b)
        cache.touch(a)
        cache.fill(c)
        assert cache.contains(a)
        assert not cache.contains(b)


class TestInvalidateAndState:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.fill(0x30)
        assert cache.invalidate(0x30) is True
        assert not cache.contains(0x30)
        assert cache.stats.invalidations_received == 1

    def test_invalidate_missing_block(self):
        cache = make_cache()
        assert cache.invalidate(0x30) is False

    def test_set_state_transitions(self):
        cache = make_cache()
        cache.fill(0x40, state=CoherenceState.SHARED)
        cache.set_state(0x40, CoherenceState.MODIFIED)
        block = cache.probe(0x40)
        assert block.state is CoherenceState.MODIFIED
        assert block.dirty

    def test_set_state_invalid_removes_block(self):
        cache = make_cache()
        cache.fill(0x40)
        cache.set_state(0x40, CoherenceState.INVALID)
        assert not cache.contains(0x40)

    def test_set_state_on_absent_block_raises(self):
        cache = make_cache()
        with pytest.raises(KeyError):
            cache.set_state(0x40, CoherenceState.SHARED)

    def test_invalidated_frame_is_reused_before_eviction(self):
        cache = make_cache()
        a, b, c = 0, 8, 16
        cache.fill(a)
        cache.fill(b)
        cache.invalidate(a)
        result = cache.fill(c)
        assert result.victim_address is None
        assert cache.contains(b)

    def test_flush(self):
        cache = make_cache()
        for block in (1, 2, 3):
            cache.fill(block)
        flushed = cache.flush()
        assert set(flushed) == {1, 2, 3}
        assert len(cache) == 0

    def test_coherence_state_helpers(self):
        assert CoherenceState.MODIFIED.can_write
        assert CoherenceState.EXCLUSIVE.can_write
        assert not CoherenceState.SHARED.can_write
        assert not CoherenceState.INVALID.is_valid


class TestReplacementPolicies:
    def test_lru_selects_oldest(self):
        policy = LruPolicy(num_sets=1, num_ways=4)
        for way in range(4):
            policy.on_fill(0, way)
        policy.on_access(0, 0)
        assert policy.select_victim(0, [0, 1, 2, 3]) == 1

    def test_victim_must_come_from_occupied_ways(self):
        policy = LruPolicy(num_sets=2, num_ways=4)
        policy.on_fill(1, 2)
        policy.on_fill(1, 3)
        assert policy.select_victim(1, [2, 3]) in (2, 3)

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            LruPolicy(1, 2).select_victim(0, [])

    def test_out_of_range_indices_rejected(self):
        policy = LruPolicy(num_sets=2, num_ways=2)
        with pytest.raises(IndexError):
            policy.on_access(2, 0)
        with pytest.raises(IndexError):
            policy.on_fill(0, 2)


@given(
    blocks=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300)
)
@settings(max_examples=60, deadline=None)
def test_property_cache_never_exceeds_capacity_and_respects_set_mapping(blocks):
    cache = make_cache()
    for block in blocks:
        cache.fill(block)
        assert len(cache) <= cache.num_frames
    # Every resident block sits in its own set, and no set exceeds its ways.
    per_set = {}
    for block in cache.resident_addresses():
        per_set.setdefault(cache.set_index(block), []).append(block)
    for set_index, members in per_set.items():
        assert len(members) <= cache.num_ways
        for member in members:
            assert member % cache.num_sets == set_index


@given(
    blocks=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200)
)
@settings(max_examples=60, deadline=None)
def test_property_most_recently_filled_block_is_always_resident(blocks):
    cache = make_cache()
    for block in blocks:
        cache.fill(block)
        assert cache.contains(block)
