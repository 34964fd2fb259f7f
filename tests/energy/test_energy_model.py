"""Tests for the SRAM primitives and the directory energy/area scaling model."""

import pytest

from repro.config import CacheConfig, PAPER_EVENT_MIX
from repro.energy.model import (
    FIGURE4_ORGANIZATIONS,
    FIGURE13_ORGANIZATIONS,
    ORGANIZATIONS,
    CuckooModel,
    DuplicateTagModel,
    InCacheModel,
    ScalingScenario,
    SparseModel,
    TaglessModel,
    organization_names,
    relative_area,
    relative_energy,
    scaling_table,
)
from repro.energy.sram import (
    SramParameters,
    cam_area,
    cam_search_energy,
    l2_data_array_area,
    l2_tag_lookup_energy,
    sram_area,
    sram_read_energy,
    sram_write_energy,
)

L2 = CacheConfig(size_bytes=1024 * 1024, associativity=16)


class TestSramPrimitives:
    def test_read_energy_monotonic_in_bits(self):
        assert sram_read_energy(128) > sram_read_energy(64)

    def test_write_costs_more_than_read(self):
        assert sram_write_energy(100) > sram_read_energy(100)

    def test_cam_search_costs_more_than_sram_read(self):
        assert cam_search_energy(100) > sram_read_energy(100)

    def test_cam_area_costs_more_than_sram(self):
        assert cam_area(1000) > sram_area(1000)

    def test_negative_bits_rejected(self):
        for fn in (sram_read_energy, sram_write_energy, cam_search_energy, sram_area, cam_area):
            with pytest.raises(ValueError):
                fn(-1)

    def test_l2_references_positive(self):
        assert l2_tag_lookup_energy(L2) > 0
        assert l2_data_array_area(L2) == pytest.approx(1024 * 1024 * 8)

    def test_custom_parameters_respected(self):
        params = SramParameters(read_energy_per_bit=10.0, access_overhead_bits=0.0)
        assert sram_read_energy(10, params) == pytest.approx(100.0)


class TestScenario:
    def test_shared_scenario_tracks_two_l1s_per_core(self):
        scenario = ScalingScenario.shared_l2()
        assert scenario.caches_per_core == 2
        assert scenario.num_caches(16) == 32
        assert scenario.frames_per_slice() == 2048

    def test_private_scenario_tracks_one_l2_per_core(self):
        scenario = ScalingScenario.private_l2()
        assert scenario.caches_per_core == 1
        assert scenario.num_caches(1024) == 1024
        assert scenario.frames_per_slice() == 16384

    def test_frames_per_slice_constant_in_core_count(self):
        scenario = ScalingScenario.shared_l2()
        # frames_per_slice has no core-count parameter by construction;
        # verify it matches the aggregate divided by slices for several sizes.
        for cores in (16, 64, 1024):
            aggregate = scenario.num_caches(cores) * scenario.tracked_cache.num_frames
            assert aggregate / cores == scenario.frames_per_slice()


class TestOrganizationModels:
    def test_registry_contains_all_figure_organizations(self):
        names = set(organization_names())
        assert set(FIGURE4_ORGANIZATIONS) <= names
        assert set(FIGURE13_ORGANIZATIONS) <= names

    def test_duplicate_tag_energy_grows_linearly_with_cores(self):
        model = DuplicateTagModel()
        scenario = ScalingScenario.shared_l2()
        e16 = model.energy_per_operation(scenario, 16)
        e256 = model.energy_per_operation(scenario, 256)
        assert e256 / e16 == pytest.approx(16, rel=0.2)

    def test_duplicate_tag_area_is_constant_per_core(self):
        model = DuplicateTagModel()
        scenario = ScalingScenario.shared_l2()
        assert model.area(scenario, 16) == model.area(scenario, 1024)

    def test_tagless_energy_grows_with_cores_but_area_does_not(self):
        model = TaglessModel()
        scenario = ScalingScenario.shared_l2()
        assert model.energy_per_operation(scenario, 1024) > 10 * model.energy_per_operation(
            scenario, 16
        )
        assert model.area(scenario, 1024) == model.area(scenario, 16)

    def test_tagless_is_most_area_efficient_baseline(self):
        scenario = ScalingScenario.shared_l2()
        tagless = relative_area("Tagless", scenario, 1024)
        for name in ("Duplicate-Tag", "Sparse 8x Coarse", "Sparse 8x Hierarchical"):
            assert tagless < relative_area(name, scenario, 1024)

    def test_sparse_full_vector_area_grows_with_cores(self):
        model = SparseModel("full", encoding="full")
        scenario = ScalingScenario.shared_l2()
        assert model.area(scenario, 1024) > 10 * model.area(scenario, 16)

    def test_sparse_coarse_area_nearly_constant(self):
        model = SparseModel("coarse", encoding="coarse")
        scenario = ScalingScenario.shared_l2()
        growth = model.area(scenario, 1024) / model.area(scenario, 16)
        assert growth < 1.5

    def test_in_cache_not_applicable_to_private_l2(self):
        model = InCacheModel()
        assert model.applicable(ScalingScenario.shared_l2())
        assert not model.applicable(ScalingScenario.private_l2())

    def test_in_cache_area_grows_linearly_with_cores(self):
        model = InCacheModel()
        scenario = ScalingScenario.shared_l2()
        ratio = model.area(scenario, 1024) / model.area(scenario, 128)
        assert ratio == pytest.approx(8.0, rel=0.1)

    def test_cuckoo_energy_nearly_constant_with_cores(self):
        model = CuckooModel("cuckoo", encoding="coarse")
        scenario = ScalingScenario.shared_l2()
        growth = model.energy_per_operation(scenario, 1024) / model.energy_per_operation(
            scenario, 16
        )
        assert growth < 1.3

    def test_cuckoo_beats_sparse_8x_area_by_provisioning_ratio(self):
        scenario = ScalingScenario.shared_l2()
        for cores in (16, 256, 1024):
            sparse = relative_area("Sparse 8x Coarse", scenario, cores)
            cuckoo = relative_area("Cuckoo Coarse", scenario, cores)
            assert 4.0 < sparse / cuckoo < 8.5

    def test_cuckoo_energy_cheaper_than_sparse_8x(self):
        scenario = ScalingScenario.private_l2()
        for cores in (16, 1024):
            assert relative_energy("Cuckoo Coarse", scenario, cores) < relative_energy(
                "Sparse 8x Coarse", scenario, cores
            )

    def test_duplicate_tag_much_less_efficient_than_cuckoo_at_16_cores(self):
        """Paper: 'up to 16x more energy-efficient than Duplicate-Tag at 16 cores'."""
        scenario = ScalingScenario.private_l2()
        ratio = relative_energy("Duplicate-Tag", scenario, 16) / relative_energy(
            "Cuckoo Coarse", scenario, 16
        )
        assert ratio > 10

    def test_tagless_energy_much_higher_than_cuckoo_at_1024(self):
        """Paper: 'up to 80x energy-efficiency over Tagless at 1024 cores'."""
        scenario = ScalingScenario.shared_l2()
        ratio = relative_energy("Tagless", scenario, 1024) / relative_energy(
            "Cuckoo Coarse", scenario, 1024
        )
        assert ratio > 10

    def test_event_mix_weighting(self):
        model = CuckooModel("c", encoding="coarse")
        scenario = ScalingScenario.shared_l2()
        energies = model.operation_energies(scenario, 16)
        assert set(energies) == set(PAPER_EVENT_MIX)
        weighted = model.energy_per_operation(scenario, 16)
        assert min(energies.values()) <= weighted <= max(energies.values())

    def test_model_parameter_validation(self):
        with pytest.raises(ValueError):
            SparseModel("bad", provisioning=0)
        with pytest.raises(ValueError):
            CuckooModel("bad", ways=1)
        with pytest.raises(ValueError):
            CuckooModel("bad", average_attempts=0.5)
        with pytest.raises(ValueError):
            TaglessModel(bits_per_frame=0)


# Figure 13's core counts in the Shared-L2 scenario (two tracked L1s per
# core) and the sharer-encoding width each stores per entry: the full
# vector one bit per cache, the coarse vector 2 * ceil(log2 caches), the
# hierarchical vector two levels of ceil(sqrt(caches)) bits each.
ENCODING_WIDTHS = [
    # cores, full, coarse, hierarchical
    (16, 32, 10, 12),
    (32, 64, 12, 16),
    (64, 128, 14, 24),
    (128, 256, 16, 32),
    (256, 512, 18, 46),
    (512, 1024, 20, 64),
    (1024, 2048, 22, 92),
]


def _sharer_width(encoding, cores):
    """The sharer bits of one Sparse entry: its width less valid bit and tag."""
    scenario = ScalingScenario.shared_l2()
    entry = SparseModel("s", encoding=encoding).entry_bits(scenario, cores)
    return entry - 1 - scenario.tag_bits()


@pytest.mark.parametrize("cores,full,coarse,hierarchical", ENCODING_WIDTHS)
class TestSharerEncodingWidths:
    def test_full_vector_is_one_bit_per_cache(self, cores, full, coarse, hierarchical):
        assert _sharer_width("full", cores) == full

    def test_coarse_vector_is_two_log_caches(self, cores, full, coarse, hierarchical):
        assert _sharer_width("coarse", cores) == coarse

    def test_hierarchical_vector_is_two_root_caches(self, cores, full, coarse, hierarchical):
        assert _sharer_width("hierarchical", cores) == hierarchical
        assert hierarchical < full


class TestAnalyticalOrganizations:
    """The Figure 4 and 13 organizations that exist only as cost models."""

    def test_unknown_sharer_encoding_rejected(self):
        with pytest.raises(ValueError):
            SparseModel("bad", encoding="bogus").entry_bits(ScalingScenario.shared_l2(), 16)

    def test_in_cache_stores_one_full_vector_per_l2_frame(self):
        model = InCacheModel()
        scenario = ScalingScenario.shared_l2()
        for cores in (16, 256):
            vector = scenario.num_caches(cores)
            assert model.storage_bits(scenario, cores) == L2.num_frames * vector

    def test_duplicate_tag_stores_one_tag_per_tracked_frame(self):
        model = DuplicateTagModel()
        for scenario in (ScalingScenario.shared_l2(), ScalingScenario.private_l2()):
            expected = scenario.frames_per_slice() * (scenario.tag_bits() + 1)
            assert model.storage_bits(scenario, 16) == expected
            assert model.storage_bits(scenario, 1024) == expected

    def test_duplicate_tag_lookup_searches_every_mirrored_way(self):
        model = DuplicateTagModel()
        scenario = ScalingScenario.shared_l2()
        for cores in (16, 256):
            ways = scenario.tracked_cache.associativity * scenario.num_caches(cores)
            searched = cam_search_energy(ways * scenario.tag_bits(), scenario.params)
            assert model.operation_energies(scenario, cores)["invalidate_all"] == searched

    def test_tagless_lookup_reads_one_sharer_row_per_probe(self):
        model = TaglessModel(num_probes=3)
        scenario = ScalingScenario.shared_l2()
        for cores in (16, 256):
            row = 3 * scenario.num_caches(cores)
            read = sram_read_energy(row, scenario.params)
            assert model.operation_energies(scenario, cores)["invalidate_all"] == read

    def test_tagless_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TaglessModel(bits_per_frame=-1.0)
        with pytest.raises(ValueError):
            TaglessModel(num_probes=0)


class TestScalingTable:
    def test_table_structure(self):
        scenario = ScalingScenario.shared_l2()
        table = scaling_table(["Duplicate-Tag", "Cuckoo Coarse"], scenario, (16, 64))
        assert set(table) == {"Duplicate-Tag", "Cuckoo Coarse"}
        assert set(table["Duplicate-Tag"]) == {16, 64}
        assert set(table["Duplicate-Tag"][16]) == {"energy", "area"}

    def test_in_cache_omitted_for_private_scenario(self):
        table = scaling_table(
            ["Sparse 8x In-Cache", "Cuckoo Coarse"], ScalingScenario.private_l2(), (16,)
        )
        assert "Sparse 8x In-Cache" not in table
        assert "Cuckoo Coarse" in table

    def test_all_values_positive(self):
        table = scaling_table(FIGURE13_ORGANIZATIONS, ScalingScenario.shared_l2())
        for series in table.values():
            for point in series.values():
                assert point["energy"] > 0
                assert point["area"] > 0
