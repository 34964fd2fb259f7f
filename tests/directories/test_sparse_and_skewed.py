"""Organization-specific tests for the Sparse and Skewed directories."""

import pytest

from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.directories.table import TAG_BITS
from repro.hashing.strong import StrongHashFamily


class TestSparseDirectory:
    def test_set_conflict_forces_invalidation_of_lru_victim(self):
        directory = SparseDirectory(num_caches=4, num_sets=4, num_ways=2)
        # Three blocks mapping to the same set (addresses congruent mod 4).
        a, b, c = 0, 4, 8
        directory.add_sharer(a, 0)
        directory.add_sharer(b, 1)
        result = directory.add_sharer(c, 2)
        assert result.forced_invalidation_count == 1
        victim = result.invalidations[0]
        assert victim.address == a  # LRU victim is the oldest entry
        assert victim.caches == frozenset({0})
        assert not directory.contains(a)
        assert directory.contains(b)
        assert directory.contains(c)

    def test_lru_updated_by_sharer_additions(self):
        directory = SparseDirectory(num_caches=4, num_sets=4, num_ways=2)
        a, b, c = 0, 4, 8
        directory.add_sharer(a, 0)
        directory.add_sharer(b, 1)
        directory.add_sharer(a, 2)          # touch a: b becomes LRU
        result = directory.add_sharer(c, 3)
        assert result.invalidations[0].address == b

    def test_no_conflicts_within_capacity_of_one_set(self):
        directory = SparseDirectory(num_caches=2, num_sets=2, num_ways=4)
        for block in (0, 2, 4, 6):  # all map to set 0
            result = directory.add_sharer(block, 0)
            assert result.forced_invalidation_count == 0

    def test_forced_invalidation_reports_all_sharers_of_victim(self):
        directory = SparseDirectory(num_caches=4, num_sets=2, num_ways=1)
        directory.add_sharer(0, 0)
        directory.add_sharer(0, 3)
        result = directory.add_sharer(2, 1)  # conflicts with block 0 (set 0)
        assert result.invalidations[0].caches == frozenset({0, 3})

    def test_entry_bits_are_valid_tag_and_full_vector(self):
        directory = SparseDirectory(num_caches=64, num_sets=16, num_ways=4)
        assert directory.entry_bits == 1 + TAG_BITS + 64

    def test_insertion_always_one_attempt(self):
        directory = SparseDirectory(num_caches=2, num_sets=8, num_ways=2)
        for block in range(40):
            directory.add_sharer(block, 0)
        assert directory.stats.average_insertion_attempts == pytest.approx(1.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SparseDirectory(num_caches=2, num_sets=0, num_ways=2)
        with pytest.raises(ValueError):
            SparseDirectory(num_caches=2, num_sets=8, num_ways=0)


class TestSkewedDirectory:
    def test_breaks_simple_set_conflicts(self):
        """Blocks that conflict in a set-associative directory usually do not
        conflict in the skewed organization (different hash per way)."""
        skewed = SkewedDirectory(
            num_caches=2,
            num_sets=64,
            num_ways=2,
            hash_family=StrongHashFamily(2, 64, seed=3),
        )
        sparse = SparseDirectory(num_caches=2, num_sets=64, num_ways=2)
        # 8 blocks that all collide in the sparse directory's set 0.
        conflicting = [i * 64 for i in range(8)]
        for block in conflicting:
            skewed.add_sharer(block, 0)
            sparse.add_sharer(block, 0)
        assert sparse.stats.forced_invalidations >= 6
        assert skewed.stats.forced_invalidations < sparse.stats.forced_invalidations

    def test_conflict_when_all_candidates_full(self):
        """With a single set per way every block conflicts, so the skewed
        directory must victimise (single-step insertion)."""
        directory = SkewedDirectory(num_caches=2, num_sets=1, num_ways=2)
        directory.add_sharer(0, 0)
        directory.add_sharer(1, 0)
        result = directory.add_sharer(2, 1)
        assert result.forced_invalidation_count == 1
        assert directory.entry_count() == 2

    def test_victim_is_least_recently_used_candidate(self):
        directory = SkewedDirectory(num_caches=2, num_sets=1, num_ways=2)
        directory.add_sharer(0, 0)
        directory.add_sharer(1, 0)
        directory.add_sharer(0, 1)  # touch block 0, block 1 is now LRU
        result = directory.add_sharer(2, 0)
        assert result.invalidations[0].address == 1

    def test_insertions_single_attempt(self):
        directory = SkewedDirectory(num_caches=2, num_sets=32, num_ways=4)
        for block in range(50):
            directory.add_sharer(block, 0)
        assert directory.stats.average_insertion_attempts == pytest.approx(1.0)

    def test_mismatched_hash_family_rejected(self):
        with pytest.raises(ValueError):
            SkewedDirectory(
                num_caches=2,
                num_sets=64,
                num_ways=4,
                hash_family=StrongHashFamily(2, 64),
            )

    def test_capacity(self):
        directory = SkewedDirectory(num_caches=2, num_sets=128, num_ways=4)
        assert directory.capacity == 512
