"""Tests for the stash-augmented Cuckoo directory extension."""

import pytest

from repro import obs
from repro.config import CacheLevel
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.experiments import common
from repro.hashing.strong import StrongHashFamily
from repro.workloads.suite import get_workload


def make_directory(num_caches=4, sets=4, ways=2, stash=4, max_attempts=4, seed=1):
    return StashedCuckooDirectory(
        num_caches=num_caches,
        num_sets=sets,
        num_ways=ways,
        stash_entries=stash,
        max_insertion_attempts=max_attempts,
        hash_family=StrongHashFamily(ways, sets, seed=seed),
    )


def overflow_the_table(directory, blocks, cache_id=0):
    for block in range(blocks):
        directory.add_sharer(block, cache_id)


class TestBasics:
    def test_behaves_like_cuckoo_when_not_overflowing(self):
        directory = make_directory(sets=64, ways=4)
        directory.add_sharer(0x10, 1)
        directory.add_sharer(0x10, 2)
        assert directory.lookup(0x10).sharers == frozenset({1, 2})
        directory.remove_sharer(0x10, 1)
        directory.remove_sharer(0x10, 2)
        assert directory.entry_count() == 0
        assert directory.stash_occupancy == 0

    def test_capacity_includes_stash(self):
        directory = make_directory(sets=8, ways=2, stash=4)
        assert directory.capacity == 8 * 2 + 4

    def test_rejects_negative_stash(self):
        with pytest.raises(ValueError):
            make_directory(stash=-1)

    def test_zero_stash_recovers_plain_cuckoo_behaviour(self):
        stashed = make_directory(stash=0)
        plain = CuckooDirectory(
            num_caches=4,
            num_sets=4,
            num_ways=2,
            max_insertion_attempts=4,
            hash_family=StrongHashFamily(2, 4, seed=1),
        )
        overflow_the_table(stashed, 40)
        overflow_the_table(plain, 40)
        assert stashed.stats.forced_invalidations == plain.stats.forced_invalidations
        assert stashed.stash_occupancy == 0


class TestStashBehaviour:
    def test_overflow_victims_land_in_stash_not_invalidated(self):
        directory = make_directory(stash=8)
        # Insert more blocks than the 8-entry table can hold, but within the
        # combined table+stash capacity.
        overflow_the_table(directory, 12)
        assert directory.stash_insertions > 0
        assert directory.stats.forced_invalidations == 0
        # Every inserted block is still tracked somewhere.
        for block in range(12):
            assert directory.contains(block)

    def test_stash_entries_are_found_and_updatable(self):
        directory = make_directory(stash=8)
        overflow_the_table(directory, 12)
        stashed_blocks = [b for b in range(12) if b in dict(directory.stash_items())]
        assert stashed_blocks
        block = stashed_blocks[0]
        directory.add_sharer(block, 3)
        assert 3 in directory.lookup(block).sharers

    def test_stash_overflow_invalidates_oldest(self):
        directory = make_directory(stash=2)
        overflow_the_table(directory, 60)
        assert directory.stats.forced_invalidations > 0
        # The stash never exceeds its configured size.
        assert directory.stash_occupancy <= 2

    def test_stash_reduces_invalidations_versus_plain_cuckoo(self):
        stashed = make_directory(sets=8, ways=2, stash=8, seed=3)
        plain = CuckooDirectory(
            num_caches=4,
            num_sets=8,
            num_ways=2,
            max_insertion_attempts=4,
            hash_family=StrongHashFamily(2, 8, seed=3),
        )
        for block in range(22):
            stashed.add_sharer(block, 0)
            plain.add_sharer(block, 0)
        assert stashed.stats.forced_invalidations <= plain.stats.forced_invalidations
        assert stashed.entry_count() >= plain.entry_count()

    def test_removing_last_sharer_from_stash_frees_entry(self):
        directory = make_directory(stash=8)
        overflow_the_table(directory, 12)
        stashed_blocks = [b for b in range(12) if b in dict(directory.stash_items())]
        block = stashed_blocks[0]
        directory.remove_sharer(block, 0)
        assert not directory.lookup(block).found

    def test_stash_drains_back_into_table_when_space_frees(self):
        directory = make_directory(stash=8, seed=2)
        overflow_the_table(directory, 14)
        assert directory.stash_occupancy > 0
        before = directory.stash_occupancy
        # Free table entries by removing blocks that live in the table.
        table_blocks = [b for b in range(14) if b not in dict(directory.stash_items())]
        for block in table_blocks:
            directory.remove_sharer(block, 0)
        assert directory.stash_occupancy < before
        # Nothing was lost: the remaining tracked blocks are still found.
        for block in range(14):
            if block in dict(directory.stash_items()) or directory._table.get(block) is not None:
                assert directory.contains(block)

    def test_statistics_still_consistent(self):
        directory = make_directory(stash=4)
        overflow_the_table(directory, 50)
        stats = directory.stats
        assert stats.insertions == 50
        assert sum(stats.attempt_histogram.values()) == 50
        assert stats.forced_invalidation_rate == pytest.approx(
            stats.forced_invalidations / stats.insertions
        )

    def test_acquire_exclusive_works_for_stashed_blocks(self):
        directory = make_directory(stash=8)
        overflow_the_table(directory, 12)
        stashed_blocks = [b for b in range(12) if b in dict(directory.stash_items())]
        block = stashed_blocks[0]
        directory.add_sharer(block, 2)
        result = directory.acquire_exclusive(block, 2)
        assert result.coherence_invalidations == frozenset({0})
        assert directory.lookup(block).sharers == frozenset({2})


class TestTypedStash:
    """The stash is a fixed pair of typed arrays, oldest entry first."""

    def test_add_remove_cycles_leave_the_buffers_as_built(self):
        directory = make_directory(sets=4, ways=2)
        for _ in range(5):
            for block in range(40):
                directory.add_sharer(block, 1)
            for block in range(40):
                directory.remove_sharer(block, 1)
        assert directory.entry_count() == 0 and directory.stash_items() == []
        assert list(directory._stash_keys) == [-1] * directory.stash_size
        assert len(directory.table._keys) == directory.table.capacity

    def test_parked_entries_keep_age_order(self):
        directory = make_directory(sets=1, ways=2, stash=3)
        for block in range(5):
            directory.add_sharer(block, 1)
        parked = [key for key, _ in directory.stash_items()]
        assert len(parked) == 3
        directory.remove_sharer(parked[1], 1)  # the younger ones move up
        assert [key for key, _ in directory.stash_items()] == [parked[0], parked[2]]
        assert list(directory._stash_keys)[2] == -1


#: The stash ablation's directory statistics (``benchmarks/
#: bench_ablation_stash.py``: Oracle, Shared-L2, scale 32, 12,000 measured
#: accesses, 4 ways), by (provisioning, stash entries): lookups, hits,
#: insertions, attempts, additions, removals, entry removals,
#: invalidate-all, forced, forced messages, bits read, bits written.
ABLATION = {
    (1.0, 0): (9840, 3883, 5957, 7905, 3883, 9704, 5945, 357, 0, 0, 1545099, 993816),
    (1.0, 8): (9840, 3883, 5957, 7905, 3883, 9704, 5945, 357, 0, 0, 1545099, 993816),
    (0.5, 8): (
        9963, 3784, 6179, 154842, 3784, 8882, 5537, 347, 647, 992, 1489560, 11565825,
    ),
    (0.5, 0): (
        10290, 3431, 6859, 131225, 3431, 6141, 3905, 298, 2963, 4084, 1594983, 9370401,
    ),
}


def test_stash_ablation_is_pinned():
    """The four ablation systems reproduce every counter exactly, with every
    access through the compiled drain."""
    system = common.scaled_system(CacheLevel.L1, scale=32)
    workload = get_workload("Oracle")
    obs.enable()
    obs.reset()
    try:
        for (provisioning, stash), expected in ABLATION.items():
            sets = common.cuckoo_factory(system, ways=4, provisioning=provisioning)(
                1, 0
            ).num_sets

            def factory(num_caches, slice_id, sets=sets, stash=stash):
                return StashedCuckooDirectory(
                    num_caches=num_caches, num_sets=sets, num_ways=4,
                    stash_entries=stash,
                )

            run = common.run_workload(workload, system, factory, measure_accesses=12_000)
            stats = run.result.directory_stats
            assert (
                stats.lookups, stats.lookup_hits, stats.insertions,
                stats.insertion_attempts, stats.sharer_additions,
                stats.sharer_removals, stats.entry_removals,
                stats.invalidate_all_operations, stats.forced_invalidations,
                stats.forced_invalidation_messages, stats.bits_read,
                stats.bits_written,
            ) == expected, (provisioning, stash)
        counters = obs.REGISTRY
        accesses = counters.counter("sim.batch.accesses").value
        assert counters.counter("sim.drain.vector_resolved").value == accesses > 0
    finally:
        obs.disable()
        obs.reset()
