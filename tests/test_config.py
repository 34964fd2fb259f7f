"""Tests for the system/directory configuration objects (Table 1)."""

import math

import pytest

from repro.config import (
    PAPER_EVENT_MIX,
    PRIVATE_L2_16CORE,
    SHARED_L2_16CORE,
    CacheConfig,
    CacheLevel,
    DirectoryConfig,
    SystemConfig,
)
from repro.experiments.fig09_provisioning import (
    PRIVATE_L2_GEOMETRIES,
    SHARED_L2_GEOMETRIES,
)

#: Every Figure 9 design: (system, ways, provisioning, paper label).
FIGURE9_DESIGNS = [
    (SHARED_L2_16CORE, *geometry) for geometry in SHARED_L2_GEOMETRIES
] + [(PRIVATE_L2_16CORE, *geometry) for geometry in PRIVATE_L2_GEOMETRIES]


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        l1 = CacheConfig(size_bytes=64 * 1024, associativity=2)
        assert l1.num_frames == 1024
        assert l1.num_sets == 512
        assert l1.block_offset_bits == 6

    def test_paper_l2_geometry(self):
        l2 = CacheConfig(size_bytes=1024 * 1024, associativity=16)
        assert l2.num_frames == 16384
        assert l2.num_sets == 1024

    def test_tag_bits_accounts_for_index_and_offset(self):
        l2 = CacheConfig(size_bytes=1024 * 1024, associativity=16)
        assert l2.tag_bits(48) == 48 - 6 - 10

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=2, block_bytes=48)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=2)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=0)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3)

    def test_frames_equal_sets_times_ways(self):
        config = CacheConfig(size_bytes=32 * 1024, associativity=4)
        assert config.num_frames == config.num_sets * config.associativity


class TestSystemConfig:
    def test_shared_l2_tracks_two_caches_per_core(self):
        assert SHARED_L2_16CORE.caches_per_core == 2
        assert SHARED_L2_16CORE.num_tracked_caches == 32

    def test_private_l2_tracks_one_cache_per_core(self):
        assert PRIVATE_L2_16CORE.caches_per_core == 1
        assert PRIVATE_L2_16CORE.num_tracked_caches == 16

    def test_shared_tracked_cache_is_l1(self):
        assert SHARED_L2_16CORE.tracked_cache_config is SHARED_L2_16CORE.l1_config

    def test_private_tracked_cache_is_l2(self):
        assert PRIVATE_L2_16CORE.tracked_cache_config is PRIVATE_L2_16CORE.l2_config

    def test_shared_frames_per_slice_matches_paper_1x_point(self):
        # 32 caches x 1024 frames / 16 slices = 2048 = the 4x512 geometry.
        assert SHARED_L2_16CORE.tracked_frames_per_slice == 2048

    def test_private_frames_per_slice_matches_paper_1x_point(self):
        # 16 caches x 16384 frames / 16 slices = 16384 = the 8x2048 geometry.
        assert PRIVATE_L2_16CORE.tracked_frames_per_slice == 16384

    def test_one_directory_slice_per_core(self):
        assert SHARED_L2_16CORE.num_directory_slices == 16

    def test_with_cores_scales_only_core_count(self):
        bigger = SHARED_L2_16CORE.with_cores(64)
        assert bigger.num_cores == 64
        assert bigger.l1_config == SHARED_L2_16CORE.l1_config
        assert bigger.tracked_frames_per_slice == SHARED_L2_16CORE.tracked_frames_per_slice

    def test_rejects_non_power_of_two_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=12)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)

    def test_block_bytes_comes_from_l1(self):
        assert SHARED_L2_16CORE.block_bytes == 64


class TestDirectoryConfig:
    def test_capacity_is_ways_times_sets(self):
        config = DirectoryConfig(ways=4, sets=512)
        assert config.capacity == 2048

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DirectoryConfig(ways=0, sets=512)
        with pytest.raises(ValueError):
            DirectoryConfig(ways=4, sets=0)
        with pytest.raises(ValueError):
            DirectoryConfig(ways=4, sets=16, max_insertion_attempts=0)

    def test_for_provisioning_matches_paper_shared_1x(self):
        config = DirectoryConfig.for_provisioning(SHARED_L2_16CORE, ways=4, provisioning=1.0)
        assert config.sets == 512
        assert config.capacity == 2048

    def test_for_provisioning_matches_paper_private_1_5x(self):
        config = DirectoryConfig.for_provisioning(
            PRIVATE_L2_16CORE, ways=3, provisioning=1.5
        )
        assert config.sets == 8192

    def test_for_provisioning_matches_paper_shared_2x(self):
        config = DirectoryConfig.for_provisioning(SHARED_L2_16CORE, ways=4, provisioning=2.0)
        assert config.sets == 1024

    def test_for_provisioning_rounds_to_power_of_two(self):
        config = DirectoryConfig.for_provisioning(SHARED_L2_16CORE, ways=3, provisioning=1.5)
        assert config.sets & (config.sets - 1) == 0

    def test_for_provisioning_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DirectoryConfig.for_provisioning(SHARED_L2_16CORE, ways=4, provisioning=0)

    @pytest.mark.parametrize(
        "system,ways,provisioning,label",
        FIGURE9_DESIGNS,
        ids=[
            f"{'shared' if system is SHARED_L2_16CORE else 'private'}-{label.split(' (')[0]}"
            .replace(" ", "")
            for system, _ways, _provisioning, label in FIGURE9_DESIGNS
        ],
    )
    def test_for_provisioning_builds_each_figure9_design(
        self, system, ways, provisioning, label
    ):
        """The engine's one sizing rule gives every design of Figure 9 the
        ways x sets that its paper label names."""
        label_ways, label_sets = (int(n) for n in label.split(" (")[0].split(" x "))
        config = DirectoryConfig.for_provisioning(
            system, ways=ways, provisioning=provisioning
        )
        assert (config.ways, config.sets) == (label_ways, label_sets)


class TestPaperEventMix:
    def test_fractions_sum_to_one(self):
        assert math.isclose(sum(PAPER_EVENT_MIX.values()), 1.0, abs_tol=1e-9)

    def test_contains_all_five_events(self):
        assert set(PAPER_EVENT_MIX) == {
            "insert_tag",
            "add_sharer",
            "remove_sharer",
            "remove_tag",
            "invalidate_all",
        }

    def test_values_match_paper_footnote(self):
        assert PAPER_EVENT_MIX["insert_tag"] == pytest.approx(0.235)
        assert PAPER_EVENT_MIX["add_sharer"] == pytest.approx(0.269)
        assert PAPER_EVENT_MIX["invalidate_all"] == pytest.approx(0.012)
