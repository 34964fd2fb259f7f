"""Equivalence tests for the batched / fused hashing fast paths.

``index(way, address)`` is the reference; ``way_function``,
``indices_function`` and ``batch_indices`` are performance variants that
must agree with it everywhere (the cuckoo table and Figure 7 rely on
that interchangeability).
"""

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
    indices_fn = family.indices_function()
    batched = family.batch_indices(addresses)
    assert len(batched) == len(addresses)
    for position, address in enumerate(addresses):
        reference = [family.index(way, address) for way in range(family.num_ways)]
        assert [fn(address) for fn in way_fns] == reference
        assert indices_fn(address) == reference
        assert list(batched[position]) == reference


def test_batch_indices_empty_input():
    family = StrongHashFamily(4, 512)
    assert family.batch_indices([]) == []
    assert SkewingHashFamily(4, 512).batch_indices([]) == []


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
