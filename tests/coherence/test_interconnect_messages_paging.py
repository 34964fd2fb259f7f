"""Tests for the mesh model, message accounting and page mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.interconnect import MeshInterconnect
from repro.coherence.messages import MessageType, TrafficStats, message_bytes
from repro.coherence.paging import PageMapper


class TestMeshInterconnect:
    def test_square_mesh_dimensions(self):
        mesh = MeshInterconnect(16)
        assert mesh.dimensions == (4, 4)

    def test_non_square_count(self):
        mesh = MeshInterconnect(8)
        rows, cols = mesh.dimensions
        assert rows * cols >= 8

    def test_hops_is_manhattan_distance(self):
        mesh = MeshInterconnect(16)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6  # corner to corner on a 4x4 mesh
        assert mesh.hops(5, 6) == 1

    def test_hops_symmetry(self):
        mesh = MeshInterconnect(16)
        for a in range(16):
            for b in range(16):
                assert mesh.hops(a, b) == mesh.hops(b, a)

    @pytest.mark.parametrize("tiles", range(1, 65))
    def test_hop_table_is_every_pair_of_hops(self, tiles):
        mesh = MeshInterconnect(tiles)
        expected = [[mesh.hops(a, b) for b in range(tiles)] for a in range(tiles)]
        table = mesh.hop_table()
        assert table.dtype == np.int64 and table.flags.c_contiguous
        assert table.tolist() == expected

    def test_average_distance_positive(self):
        mesh = MeshInterconnect(4)
        assert 0 < mesh.average_distance() < 4

    def test_out_of_range_tile(self):
        mesh = MeshInterconnect(4)
        with pytest.raises(IndexError):
            mesh.hops(0, 4)

    def test_single_tile(self):
        mesh = MeshInterconnect(1)
        assert mesh.hops(0, 0) == 0

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_property_triangle_inequality(self, tiles):
        mesh = MeshInterconnect(tiles)
        a, b, c = 0, tiles // 2, tiles - 1
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)


class TestTrafficStats:
    def test_record_counts_messages_hops_and_bytes(self):
        stats = TrafficStats()
        stats.record(MessageType.INVALIDATE, hops=2)
        stats.record(MessageType.DATA, hops=3)
        assert stats.total_messages == 2
        assert stats.invalidation_messages == 1
        assert stats.hops == 5
        assert stats.bytes_transferred == message_bytes(
            MessageType.INVALIDATE
        ) + message_bytes(MessageType.DATA)

    def test_data_messages_are_larger_than_control(self):
        assert message_bytes(MessageType.DATA) > message_bytes(MessageType.GET_SHARED)

    def test_record_with_count(self):
        stats = TrafficStats()
        stats.record(MessageType.INV_ACK, hops=1, count=5)
        assert stats.messages[MessageType.INV_ACK] == 5
        assert stats.hops == 5

    def test_negative_count_rejected(self):
        stats = TrafficStats()
        with pytest.raises(ValueError):
            stats.record(MessageType.DATA, count=-1)

    def test_merge(self):
        a, b = TrafficStats(), TrafficStats()
        a.record(MessageType.GET_SHARED, hops=1)
        b.record(MessageType.GET_SHARED, hops=2)
        b.record(MessageType.DATA, hops=1)
        merged = a.merge(b)
        assert merged.messages[MessageType.GET_SHARED] == 2
        assert merged.messages[MessageType.DATA] == 1
        assert merged.hops == 4


class TestPageMapper:
    def test_translation_is_stable(self):
        mapper = PageMapper(page_bytes=4096, seed=1)
        first = mapper.translate(0x12345)
        assert mapper.translate(0x12345) == first

    def test_same_page_offsets_preserved(self):
        mapper = PageMapper(page_bytes=4096, seed=1)
        base = mapper.translate(0x8000)
        assert mapper.translate(0x8000 + 100) == base + 100

    def test_different_pages_map_to_different_frames(self):
        mapper = PageMapper(page_bytes=4096, seed=2)
        pages = {mapper.translate(i * 4096) // 4096 for i in range(500)}
        assert len(pages) == 500

    def test_seed_determines_layout(self):
        a = PageMapper(page_bytes=4096, seed=7)
        b = PageMapper(page_bytes=4096, seed=7)
        c = PageMapper(page_bytes=4096, seed=8)
        addresses = [i * 4096 for i in range(50)]
        assert [a.translate(x) for x in addresses] == [b.translate(x) for x in addresses]
        assert [a.translate(x) for x in addresses] != [c.translate(x) for x in addresses]

    def test_pages_mapped_counter(self):
        mapper = PageMapper(page_bytes=1024)
        mapper.translate(0)
        mapper.translate(100)      # same page
        mapper.translate(5000)     # new page
        assert mapper.pages_mapped == 2

    def test_scattering_is_not_contiguous(self):
        """Random placement must break virtual contiguity (that is its job)."""
        mapper = PageMapper(page_bytes=4096, seed=3)
        physical = [mapper.translate(i * 4096) // 4096 for i in range(64)]
        deltas = {physical[i + 1] - physical[i] for i in range(len(physical) - 1)}
        assert deltas != {1}

    def test_pool_exhaustion_raises(self):
        mapper = PageMapper(page_bytes=64, physical_pages=4, seed=0)
        for page in range(4):
            mapper.translate(page * 64)
        with pytest.raises(RuntimeError):
            mapper.translate(10_000 * 64)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PageMapper(page_bytes=0)
        with pytest.raises(ValueError):
            PageMapper(physical_pages=0)
        mapper = PageMapper()
        with pytest.raises(ValueError):
            mapper.translate(-1)
