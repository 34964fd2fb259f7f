"""Tests for the Cuckoo directory organization."""

import pytest

from repro.core.cuckoo_directory import CuckooDirectory
from repro.hashing.strong import StrongHashFamily


def make_directory(num_caches=8, sets=64, ways=4, **kwargs):
    return CuckooDirectory(
        num_caches=num_caches,
        num_sets=sets,
        num_ways=ways,
        hash_family=StrongHashFamily(ways, sets, seed=1),
        **kwargs,
    )


class TestBasicOperations:
    def test_lookup_miss(self):
        directory = make_directory()
        result = directory.lookup(0x100)
        assert not result.found
        assert result.sharers == frozenset()

    def test_add_sharer_creates_entry(self):
        directory = make_directory()
        result = directory.add_sharer(0x100, 3)
        assert result.inserted_new_entry
        assert result.attempts == 1
        lookup = directory.lookup(0x100)
        assert lookup.found
        assert lookup.sharers == frozenset({3})

    def test_add_second_sharer_does_not_reinsert(self):
        directory = make_directory()
        directory.add_sharer(0x100, 1)
        result = directory.add_sharer(0x100, 2)
        assert not result.inserted_new_entry
        assert result.attempts == 0
        assert directory.lookup(0x100).sharers == frozenset({1, 2})
        assert directory.stats.insertions == 1
        assert directory.stats.sharer_additions == 1

    def test_remove_last_sharer_frees_entry(self):
        directory = make_directory()
        directory.add_sharer(0x200, 0)
        directory.remove_sharer(0x200, 0)
        assert not directory.lookup(0x200).found
        assert directory.entry_count() == 0
        assert directory.stats.entry_removals == 1

    def test_remove_one_of_many_sharers_keeps_entry(self):
        directory = make_directory()
        directory.add_sharer(0x200, 0)
        directory.add_sharer(0x200, 5)
        directory.remove_sharer(0x200, 0)
        assert directory.lookup(0x200).sharers == frozenset({5})

    def test_remove_sharer_for_untracked_block_is_noop(self):
        directory = make_directory()
        directory.remove_sharer(0x300, 2)
        assert directory.entry_count() == 0

    def test_acquire_exclusive_invalidates_other_sharers(self):
        directory = make_directory()
        for cache in (0, 1, 2):
            directory.add_sharer(0x400, cache)
        result = directory.acquire_exclusive(0x400, 1)
        assert result.coherence_invalidations == frozenset({0, 2})
        assert directory.lookup(0x400).sharers == frozenset({1})

    def test_acquire_exclusive_on_untracked_block(self):
        directory = make_directory()
        result = directory.acquire_exclusive(0x500, 4)
        assert result.inserted_new_entry
        assert result.coherence_invalidations == frozenset()
        assert directory.lookup(0x500).sharers == frozenset({4})

    def test_acquire_exclusive_does_not_count_extra_insertion(self):
        directory = make_directory()
        for cache in range(4):
            directory.add_sharer(0x600, cache)
        before = directory.stats.insertions
        directory.acquire_exclusive(0x600, 0)
        assert directory.stats.insertions == before

    def test_occupancy(self):
        directory = make_directory(sets=16, ways=4)  # capacity 64
        for block in range(16):
            directory.add_sharer(block, 0)
        assert directory.occupancy() == pytest.approx(16 / 64)

    def test_capacity_and_geometry(self):
        directory = make_directory(sets=128, ways=3)
        assert directory.capacity == 384
        assert directory.num_ways == 3
        assert directory.num_sets == 128

    def test_rejects_bad_cache_id(self):
        directory = make_directory(num_caches=4)
        with pytest.raises(IndexError):
            directory.add_sharer(0x1, 4)
        with pytest.raises(IndexError):
            directory.remove_sharer(0x1, -1)

    def test_contains(self):
        directory = make_directory()
        directory.add_sharer(0x700, 2)
        assert directory.contains(0x700)
        assert not directory.contains(0x701)


class TestForcedInvalidations:
    def test_no_invalidations_at_half_occupancy(self):
        """The paper's key claim: at <=50% occupancy the Cuckoo directory
        never forces invalidations."""
        directory = make_directory(num_caches=4, sets=128, ways=4)  # capacity 512
        for block in range(256):
            result = directory.add_sharer(block, block % 4)
            assert result.forced_invalidation_count == 0
        assert directory.stats.forced_invalidations == 0

    def test_overflow_forces_invalidations_and_reports_them(self):
        directory = make_directory(num_caches=2, sets=4, ways=2,
                                   max_insertion_attempts=4)  # capacity 8
        reported = []
        for block in range(64):
            result = directory.add_sharer(block, 0)
            reported.extend(result.invalidations)
        assert reported
        assert directory.stats.forced_invalidations == len(reported)
        for invalidation in reported:
            # The evicted entry's sharers are exactly what must be invalidated.
            assert invalidation.caches == frozenset({0})
            assert not directory.contains(invalidation.address)

    def test_forced_invalidation_rate_matches_counts(self):
        directory = make_directory(num_caches=2, sets=4, ways=2,
                                   max_insertion_attempts=4)
        for block in range(64):
            directory.add_sharer(block, 1)
        stats = directory.stats
        assert stats.forced_invalidation_rate == pytest.approx(
            stats.forced_invalidations / stats.insertions
        )


class TestStatistics:
    def test_attempt_histogram_sums_to_insertions(self):
        directory = make_directory(sets=32, ways=4)
        for block in range(100):
            directory.add_sharer(block, 0)
        stats = directory.stats
        assert sum(stats.attempt_histogram.values()) == stats.insertions

    def test_average_attempts_at_least_one(self):
        directory = make_directory(sets=64, ways=4)
        for block in range(100):
            directory.add_sharer(block, 0)
        assert directory.stats.average_insertion_attempts >= 1.0

    def test_reset_stats(self):
        directory = make_directory()
        directory.add_sharer(1, 0)
        directory.reset_stats()
        assert directory.stats.insertions == 0
        # Contents survive a stats reset (only counters are cleared).
        assert directory.contains(1)

    def test_sample_occupancy_recorded(self):
        directory = make_directory(sets=16, ways=4)
        directory.add_sharer(1, 0)
        value = directory.sample_occupancy()
        assert value == pytest.approx(1 / 64)
        assert directory.stats.average_occupancy == pytest.approx(value)

    def test_bits_accounting_increases(self):
        directory = make_directory()
        directory.lookup(0x1)
        directory.add_sharer(0x1, 0)
        assert directory.stats.bits_read > 0
        assert directory.stats.bits_written > 0
