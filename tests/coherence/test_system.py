"""Tests for the tiled-CMP coherence system (protocol-level behaviour)."""

import importlib.util
from pathlib import Path

import pytest

from repro.cache.cache import CoherenceState
from repro.coherence.messages import MessageType
from repro.coherence.paging import PageMapper
from repro.coherence.simulator import TraceSimulator
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.sparse import SparseDirectory
from repro.experiments.common import scaled_system
from repro.workloads.synthetic import UniformRandomWorkload


def cuckoo_factory(num_caches, slice_id):
    return CuckooDirectory(num_caches=num_caches, num_sets=64, num_ways=4)


def tiny_sparse_factory(num_caches, slice_id):
    # Deliberately tiny so set conflicts (forced invalidations) occur.
    return SparseDirectory(num_caches=num_caches, num_sets=2, num_ways=2)


def identity_mapper():
    """A page mapper whose pool is laid out deterministically is still fine
    for protocol tests; we only need determinism, which the seed gives us."""
    return PageMapper(page_bytes=256, seed=0)


def make_system(config, factory=cuckoo_factory):
    return TiledCMP(config, factory, page_mapper=identity_mapper())


BLOCK = 64  # one block in bytes


class TestAddressing:
    def test_tracked_cache_ids_shared(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        assert system.tracked_cache_id(0, is_instruction=True) == 0
        assert system.tracked_cache_id(0, is_instruction=False) == 1
        assert system.tracked_cache_id(3, is_instruction=False) == 7
        assert len(system.tracked_caches) == 8

    def test_tracked_cache_ids_private(self, tiny_private_system):
        system = make_system(tiny_private_system)
        assert system.tracked_cache_id(2, is_instruction=True) == 2
        assert system.tracked_cache_id(2, is_instruction=False) == 2
        assert len(system.tracked_caches) == 4

    def test_core_of_cache_inverse(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        for core in range(4):
            for instruction in (True, False):
                cache_id = system.tracked_cache_id(core, instruction)
                assert system.core_of_cache(cache_id) == core

    def test_home_slice_and_local_address_roundtrip(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        for block in range(0, 100, 7):
            home = system.home_slice(block)
            local = system.slice_local_address(block)
            assert system.global_address(local, home) == block

    def test_one_directory_slice_per_core(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        assert len(system.directories) == 4

    def test_shared_config_has_l2_banks_private_does_not(
        self, tiny_shared_system, tiny_private_system
    ):
        assert make_system(tiny_shared_system).l2_banks is not None
        assert make_system(tiny_private_system).l2_banks is None

    def test_invalid_core_rejected(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        with pytest.raises(IndexError):
            system.tracked_cache_id(4, is_instruction=False)


class TestReadProtocol:
    def test_read_miss_installs_block_and_registers_sharer(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x1000, is_write=False))
        cache = system.tracked_caches[0]
        block = system.block_address(0x1000)
        assert cache.contains(block)
        directory = system.directories[system.home_slice(block)]
        assert 0 in directory.lookup(system.slice_local_address(block)).sharers

    def test_first_reader_gets_exclusive_state(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x1000, is_write=False))
        block = system.block_address(0x1000)
        assert system.tracked_caches[0].state_of(block) is CoherenceState.EXCLUSIVE

    def test_second_reader_gets_shared_state_and_owner_downgrades(
        self, tiny_private_system
    ):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x1000, is_write=True))
        system.access(MemoryAccess(core=1, address=0x1000, is_write=False))
        block = system.block_address(0x1000)
        assert system.tracked_caches[0].state_of(block) is CoherenceState.SHARED
        assert system.tracked_caches[1].state_of(block) is CoherenceState.SHARED

    def test_read_hit_no_directory_traffic(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x1000, is_write=False))
        lookups_before = system.directory_stats().lookups
        system.access(MemoryAccess(core=0, address=0x1000, is_write=False))
        assert system.directory_stats().lookups == lookups_before

    def test_instruction_accesses_use_the_instruction_l1(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        system.access(
            MemoryAccess(core=0, address=0x2000, is_write=False, is_instruction=True)
        )
        block = system.block_address(0x2000)
        assert system.tracked_caches[0].contains(block)      # L1I of core 0
        assert not system.tracked_caches[1].contains(block)  # L1D untouched


class TestWriteProtocol:
    def test_write_installs_modified(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=2, address=0x3000, is_write=True))
        block = system.block_address(0x3000)
        assert system.tracked_caches[2].state_of(block) is CoherenceState.MODIFIED

    def test_write_invalidates_other_sharers(self, tiny_private_system):
        system = make_system(tiny_private_system)
        for core in (0, 1, 2):
            system.access(MemoryAccess(core=core, address=0x4000, is_write=False))
        system.access(MemoryAccess(core=3, address=0x4000, is_write=True))
        block = system.block_address(0x4000)
        for core in (0, 1, 2):
            assert not system.tracked_caches[core].contains(block)
        assert system.tracked_caches[3].state_of(block) is CoherenceState.MODIFIED
        directory = system.directories[system.home_slice(block)]
        assert directory.lookup(system.slice_local_address(block)).sharers == frozenset({3})

    def test_write_invalidation_messages_counted(self, tiny_private_system):
        system = make_system(tiny_private_system)
        for core in (0, 1):
            system.access(MemoryAccess(core=core, address=0x4000, is_write=False))
        before = system.traffic.invalidation_messages
        system.access(MemoryAccess(core=2, address=0x4000, is_write=True))
        assert system.traffic.invalidation_messages >= before + 2

    def test_write_hit_on_exclusive_is_silent_upgrade(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x5000, is_write=False))
        lookups_before = system.directory_stats().lookups
        system.access(MemoryAccess(core=0, address=0x5000, is_write=True))
        block = system.block_address(0x5000)
        assert system.tracked_caches[0].state_of(block) is CoherenceState.MODIFIED
        assert system.directory_stats().lookups == lookups_before

    def test_write_hit_on_shared_upgrades_via_directory(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x6000, is_write=False))
        system.access(MemoryAccess(core=1, address=0x6000, is_write=False))
        system.access(MemoryAccess(core=0, address=0x6000, is_write=True))
        block = system.block_address(0x6000)
        assert system.tracked_caches[0].state_of(block) is CoherenceState.MODIFIED
        assert not system.tracked_caches[1].contains(block)

    def test_write_after_write_by_other_core_steals_ownership(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x7000, is_write=True))
        system.access(MemoryAccess(core=1, address=0x7000, is_write=True))
        block = system.block_address(0x7000)
        assert not system.tracked_caches[0].contains(block)
        assert system.tracked_caches[1].state_of(block) is CoherenceState.MODIFIED


class TestEvictionsAndInclusion:
    def test_cache_eviction_notifies_directory(self, tiny_private_system):
        system = make_system(tiny_private_system)
        cache = system.tracked_caches[0]
        # Generate enough distinct blocks to force evictions from the cache.
        for i in range(cache.num_frames * 3):
            system.access(MemoryAccess(core=0, address=i * 64 * 4, is_write=False))
        assert cache.stats.evictions > 0
        assert len(system.check_inclusion()) == 0

    def test_forced_invalidation_removes_block_from_cache(self, tiny_private_system):
        system = TiledCMP(
            tiny_private_system, tiny_sparse_factory, page_mapper=identity_mapper()
        )
        for i in range(200):
            system.access(MemoryAccess(core=i % 4, address=i * 64 * 4, is_write=False))
        stats = system.directory_stats()
        assert stats.forced_invalidations > 0
        assert len(system.check_inclusion()) == 0

    def test_inclusion_holds_across_mixed_traffic(self, tiny_shared_system):
        system = make_system(tiny_shared_system)
        for i in range(300):
            system.access(
                MemoryAccess(
                    core=i % 4,
                    address=(i * 37) % 200 * 64,
                    is_write=(i % 5 == 0),
                    is_instruction=(i % 3 == 0),
                )
            )
        assert len(system.check_inclusion()) == 0

    def test_reset_stats_clears_counters_but_not_contents(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x100, is_write=False))
        system.reset_stats()
        assert system.directory_stats().insertions == 0
        assert system.traffic.total_messages == 0
        block = system.block_address(0x100)
        assert system.tracked_caches[0].contains(block)

    def test_sample_occupancy_returns_mean_of_slices(self, tiny_private_system):
        system = make_system(tiny_private_system)
        for i in range(50):
            system.access(MemoryAccess(core=0, address=i * 64, is_write=False))
        value = system.sample_occupancy()
        assert 0.0 < value <= 1.0


class _PerSliceSampling(TiledCMP):
    """Occupancy sampled through every slice's own sample_occupancy()."""

    def sample_occupancy(self):
        values = [directory.sample_occupancy() for directory in self.directories]
        return sum(values) / len(values)


def _stashed_factory(num_caches, slice_id):
    # Far below the tracked frames, so walks are cut off and the stash fills.
    return StashedCuckooDirectory(
        num_caches, num_sets=16, num_ways=2, stash_entries=4, max_insertion_attempts=4
    )


class TestOccupancySampling:
    """TiledCMP.sample_occupancy reads each slice's live-entry count against
    the capacity it took at construction, and must record and return
    exactly what every slice's own Directory.sample_occupancy did."""

    def test_samples_equal_the_per_slice_path_with_a_stash(self, tiny_private_system):
        workload = UniformRandomWorkload(footprint_blocks=2000)
        runs = []
        for kind in (TiledCMP, _PerSliceSampling):
            system = kind(tiny_private_system, _stashed_factory, page_mapper=identity_mapper())
            simulator = TraceSimulator(
                system, warmup_accesses=500, occupancy_sample_interval=97
            )
            chunks = workload.trace_chunks(tiny_private_system, seed=2)
            runs.append((system, simulator.run_chunks(chunks, max_accesses=6000)))
        (system, result), (per_slice, expected) = runs
        assert any(directory.stash_occupancy for directory in system.directories)
        assert result.average_occupancy == expected.average_occupancy
        assert result.per_slice_stats == expected.per_slice_stats
        assert all(stats.occupancy_samples == 6000 // 97 for stats in result.per_slice_stats)
        assert system.bank_occupancies() == [
            directory.occupancy() for directory in per_slice.directories
        ]


class TestAccessBatchBounds:
    def test_a_slice_outside_the_chunk_is_refused_before_anything_runs(self):
        system = make_system(scaled_system(CacheLevel.L1, scale=64))
        fields = ([0, 1], [0x100, 0x200], [False, False], [False, False])
        for start, stop in ((0, 10), (-1, 2), (1, 3)):
            with pytest.raises(ValueError, match="outside a chunk of 2"):
                system.access_batch(*fields, start, stop)
        assert system.accesses_processed == 0
        assert system.page_mapper.pages_mapped == 0
        assert sum(cache.stats.accesses for cache in system.tracked_caches) == 0
        assert system.access_batch(*fields, 0, 2) == 2
        assert system.accesses_processed == 2


class TestTraffic:
    def test_read_miss_produces_request_and_data(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x9000, is_write=False))
        assert system.traffic.messages[MessageType.GET_SHARED] == 1
        assert system.traffic.messages[MessageType.DATA] == 1

    def test_write_miss_produces_getm(self, tiny_private_system):
        system = make_system(tiny_private_system)
        system.access(MemoryAccess(core=0, address=0x9000, is_write=True))
        assert system.traffic.messages[MessageType.GET_MODIFIED] == 1

    def test_traffic_tracking_can_be_disabled(self, tiny_private_system):
        system = TiledCMP(
            tiny_private_system,
            cuckoo_factory,
            track_traffic=False,
            page_mapper=identity_mapper(),
        )
        system.access(MemoryAccess(core=0, address=0x9000, is_write=True))
        assert system.traffic.total_messages == 0


class TestDrainRefusals:
    """A system the compiled drain cannot run is refused at construction."""

    def test_more_than_64_tracked_caches(self, tiny_l1, tiny_l2):
        config = SystemConfig(
            num_cores=64, l1_config=tiny_l1, l2_config=tiny_l2,
            tracked_level=CacheLevel.L1, page_bytes=256,
        )
        assert config.num_tracked_caches == 128
        with pytest.raises(ValueError, match="at most 64 caches"):
            make_system(config)

    def test_slices_with_different_way_counts(self, tiny_private_system):
        def factory(num_caches, slice_id):
            return CuckooDirectory(
                num_caches=num_caches, num_sets=64, num_ways=3 if slice_id else 4
            )

        with pytest.raises(ValueError, match="one way count in every slice"):
            make_system(tiny_private_system, factory)

    def test_slice_that_is_not_table_backed(self, tiny_private_system):
        # The object-per-entry Sparse directory of the directory reference tests.
        spec = importlib.util.spec_from_file_location(
            "directory_reference_model",
            Path(__file__).parents[1] / "directories" / "reference_model.py",
        )
        reference_model = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference_model)

        def factory(num_caches, slice_id):
            return reference_model.ReferenceSparseDirectory(num_caches, 4, 2)

        with pytest.raises(ValueError, match="not table-backed"):
            make_system(tiny_private_system, factory)
