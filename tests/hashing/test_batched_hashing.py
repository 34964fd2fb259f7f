"""Equivalence tests for the batched / fused hashing fast paths.

``index(way, address)`` is the reference; ``way_function``,
``batch_indices`` and ``batch_indices_array`` are performance variants that
must agree with it everywhere (Figure 7 and the tests of the compiled
hashing rely on that interchangeability).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.base import HashFamily
from repro.hashing.modulo import ModuloHashFamily
from repro.hashing.skewing import SkewingHashFamily
from repro.hashing.strong import StrongHashFamily

addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 48) - 1), min_size=1, max_size=64
)


FAMILIES = [
    ("skewing-4x512", lambda: SkewingHashFamily(4, 512)),
    ("skewing-3x64-offset", lambda: SkewingHashFamily(3, 64, offset_bits=6)),
    ("skewing-2x1", lambda: SkewingHashFamily(2, 1)),
    ("strong-4x512", lambda: StrongHashFamily(4, 512, seed=7)),
    ("strong-3x1000", lambda: StrongHashFamily(3, 1000, seed=1)),
    ("modulo-3x6", lambda: ModuloHashFamily(3, 6)),
    ("modulo-1x64", lambda: ModuloHashFamily(1, 64)),
]


@pytest.mark.parametrize("name,make", FAMILIES, ids=[n for n, _ in FAMILIES])
@given(addresses=addresses_strategy)
@settings(max_examples=60, deadline=None)
def test_all_fast_paths_match_reference_index(name, make, addresses):
    family = make()
    way_fns = family.way_functions()
    batched = family.batch_indices(addresses)
    assert len(batched) == len(addresses)
    for position, address in enumerate(addresses):
        reference = [family.index(way, address) for way in range(family.num_ways)]
        assert [fn(address) for fn in way_fns] == reference
        assert list(batched[position]) == reference


@pytest.mark.parametrize("name,make", FAMILIES, ids=[n for n, _ in FAMILIES])
@given(addresses=addresses_strategy)
@settings(max_examples=40, deadline=None)
def test_batch_indices_array_matches_batch_indices(name, make, addresses):
    """The drain's (num_ways, n) int64 array holds the same rows as
    ``batch_indices``, address by address, for numpy and list input."""
    family = make()
    rows = family.batch_indices(addresses)
    for source in (addresses, np.asarray(addresses, dtype=np.int64)):
        array = family.batch_indices_array(source)
        assert array.dtype == np.int64 and array.flags.c_contiguous
        assert array.shape == (family.num_ways, len(addresses))
        assert [tuple(column) for column in array.T.tolist()] == rows


def test_batch_indices_empty_input():
    family = StrongHashFamily(4, 512)
    assert family.batch_indices([]) == []
    assert SkewingHashFamily(4, 512).batch_indices([]) == []
    assert ModuloHashFamily(3, 6).batch_indices_array([]).shape == (3, 0)


def test_default_batch_indices_used_by_generic_families():
    class Modulo(HashFamily):
        def index(self, way, address):
            self._check_way(way)
            return (address + way) % self._num_sets

    family = Modulo(3, 8)
    assert family.batch_indices([0, 5, 21]) == [
        (0, 1, 2),
        (5, 6, 7),
        (5, 6, 7),
    ]


def test_index_bits_cached_and_correct():
    family = SkewingHashFamily(4, 512)
    assert family.index_bits == 9
    assert SkewingHashFamily(2, 1).index_bits == 0
