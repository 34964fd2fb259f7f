"""Contract tests every directory organization must satisfy.

The coherence system treats all organizations interchangeably, so the
behaviour it depends on is verified here for each of them, including the
Cuckoo directory under the strong hash and at the 3- and 8-way geometries
of the paper's sweeps:

* a sharer that was added (and not removed/invalidated) is always reported;
* a sharer is never reported for a cache that never held the block;
* entries disappear once the last sharer leaves;
* any entry the organization drops to make room is reported through
  ``UpdateResult.invalidations``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

NUM_CACHES = 8


def build_directory(name: str):
    """Generously sized instances so the contract tests do not overflow."""
    if name == "cuckoo":
        return CuckooDirectory(num_caches=NUM_CACHES, num_sets=256, num_ways=4)
    if name == "cuckoo-strong":  # the hash-family ablation's strong hash
        return CuckooDirectory(
            num_caches=NUM_CACHES, num_sets=256, num_ways=4,
            hash_family=StrongHashFamily(num_ways=4, num_sets=256, seed=1),
        )
    if name == "cuckoo-3way":  # Figure 9's 3-way designs
        return CuckooDirectory(num_caches=NUM_CACHES, num_sets=256, num_ways=3)
    if name == "cuckoo-8way":  # Figure 9's 8-way Private-L2 designs
        return CuckooDirectory(num_caches=NUM_CACHES, num_sets=128, num_ways=8)
    if name == "sparse":
        return SparseDirectory(num_caches=NUM_CACHES, num_sets=128, num_ways=8)
    if name == "skewed":
        return SkewedDirectory(num_caches=NUM_CACHES, num_sets=256, num_ways=4)
    if name == "stashed":
        return StashedCuckooDirectory(num_caches=NUM_CACHES, num_sets=256, num_ways=4)
    raise ValueError(name)


ORGANIZATIONS = [
    "cuckoo", "cuckoo-strong", "cuckoo-3way", "cuckoo-8way", "sparse", "skewed",
    "stashed",
]


@pytest.mark.parametrize("organization", ORGANIZATIONS)
class TestDirectoryContract:
    def test_lookup_miss_on_empty(self, organization):
        directory = build_directory(organization)
        assert not directory.lookup(0x123).found
        assert directory.entry_count() == 0

    def test_added_sharer_is_reported(self, organization):
        directory = build_directory(organization)
        directory.add_sharer(0x123, 2)
        result = directory.lookup(0x123)
        assert result.found
        assert 2 in result.sharers

    def test_multiple_sharers_accumulate(self, organization):
        directory = build_directory(organization)
        for cache in (0, 3, 7):
            directory.add_sharer(0x55, cache)
        sharers = directory.lookup(0x55).sharers
        assert {0, 3, 7} <= set(sharers)

    def test_distinct_blocks_have_independent_sharers(self, organization):
        directory = build_directory(organization)
        directory.add_sharer(0x10, 1)
        directory.add_sharer(0x20, 2)
        assert 2 not in directory.lookup(0x10).sharers
        assert 1 in directory.lookup(0x10).sharers
        assert 2 in directory.lookup(0x20).sharers

    def test_removed_last_sharer_frees_entry(self, organization):
        directory = build_directory(organization)
        directory.add_sharer(0x77, 4)
        directory.remove_sharer(0x77, 4)
        assert directory.entry_count() == 0

    def test_remove_is_noop_for_unknown_block(self, organization):
        directory = build_directory(organization)
        directory.remove_sharer(0x999, 0)
        assert directory.entry_count() == 0

    def test_acquire_exclusive_leaves_only_writer(self, organization):
        directory = build_directory(organization)
        for cache in (0, 1, 2, 3):
            directory.add_sharer(0x88, cache)
        result = directory.acquire_exclusive(0x88, 2)
        assert {0, 1, 3} <= set(result.coherence_invalidations)
        assert 2 not in result.coherence_invalidations
        assert directory.lookup(0x88).sharers == frozenset({2})

    def test_insertion_statistics_recorded(self, organization):
        directory = build_directory(organization)
        for block in range(10):
            directory.add_sharer(block, 0)
        stats = directory.stats
        assert stats.insertions == 10
        assert stats.average_insertion_attempts >= 1.0

    def test_sharer_addition_not_counted_as_insertion(self, organization):
        directory = build_directory(organization)
        directory.add_sharer(0x5, 0)
        directory.add_sharer(0x5, 1)
        assert directory.stats.insertions == 1

    def test_entry_count_tracks_live_blocks(self, organization):
        directory = build_directory(organization)
        for block in range(20):
            directory.add_sharer(block, block % NUM_CACHES)
        assert directory.entry_count() == 20
        for block in range(20):
            directory.remove_sharer(block, block % NUM_CACHES)
        assert directory.entry_count() == 0

    def test_occupancy_between_zero_and_one(self, organization):
        directory = build_directory(organization)
        for block in range(30):
            directory.add_sharer(block, 0)
        assert 0.0 <= directory.occupancy() <= 1.0

    def test_capacity_positive(self, organization):
        directory = build_directory(organization)
        assert directory.capacity > 0

    def test_rejects_invalid_cache_id(self, organization):
        directory = build_directory(organization)
        with pytest.raises(IndexError):
            directory.add_sharer(0x1, NUM_CACHES)

    def test_reset_stats_clears_counters(self, organization):
        directory = build_directory(organization)
        directory.add_sharer(0x9, 0)
        directory.reset_stats()
        assert directory.stats.insertions == 0
        assert directory.stats.lookups == 0


@pytest.mark.parametrize("organization", ORGANIZATIONS)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "exclusive"]),
            st.integers(0, 30),
            st.integers(0, NUM_CACHES - 1),
        ),
        max_size=80,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_directory_tracks_reference_sharer_sets(organization, operations):
    """Against a reference model, reported sharers are exactly the true
    sharers — provided capacity is never exceeded, which the generous
    sizing guarantees."""
    directory = build_directory(organization)
    reference = {}
    for op, block, cache in operations:
        if op == "add":
            directory.add_sharer(block, cache)
            reference.setdefault(block, set()).add(cache)
        elif op == "remove":
            directory.remove_sharer(block, cache)
            if block in reference:
                reference[block].discard(cache)
                if not reference[block]:
                    del reference[block]
        else:
            directory.acquire_exclusive(block, cache)
            reference[block] = {cache}
    for block, sharers in reference.items():
        assert set(directory.lookup(block).sharers) == sharers
    # Blocks never touched stay untracked.
    assert not directory.lookup(10_000).found
