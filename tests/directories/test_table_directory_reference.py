"""Randomized equivalence: table-backed Sparse/Skewed vs the object-per-entry model.

The Sparse and Skewed organizations run on the cuckoo table with its LRU
insert policy (:class:`repro.directories.table.TableDirectory`).  That must
be behaviourally invisible: for any sequence of directory operations the
returned results (lookups, update results and the forced invalidations
they carry, i.e. which LRU victim leaves) and every statistic, the
attempt histogram included, must match the retained pre-table reference
implementation (``reference_model.py`` beside this file) exactly.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

# Loaded by path: tests/cache holds another module named reference_model.
_SPEC = importlib.util.spec_from_file_location(
    "directory_reference_model", Path(__file__).with_name("reference_model.py")
)
reference_model = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference_model)

NUM_CACHES = 4

#: name -> (production factory, reference factory)
ORGANIZATIONS = {
    "sparse-4x2": (
        lambda: SparseDirectory(NUM_CACHES, num_sets=4, num_ways=2),
        lambda: reference_model.ReferenceSparseDirectory(NUM_CACHES, 4, 2),
    ),
    "sparse-1-way": (
        lambda: SparseDirectory(NUM_CACHES, num_sets=4, num_ways=1),
        lambda: reference_model.ReferenceSparseDirectory(NUM_CACHES, 4, 1),
    ),
    "sparse-6-sets": (
        lambda: SparseDirectory(NUM_CACHES, num_sets=6, num_ways=3),
        lambda: reference_model.ReferenceSparseDirectory(NUM_CACHES, 6, 3),
    ),
    "skewed-skewing": (
        lambda: SkewedDirectory(NUM_CACHES, num_sets=4, num_ways=4),
        lambda: reference_model.ReferenceSkewedDirectory(NUM_CACHES, 4, 4),
    ),
    "skewed-strong": (
        lambda: SkewedDirectory(
            NUM_CACHES, num_sets=5, num_ways=2,
            hash_family=StrongHashFamily(2, 5, seed=3),
        ),
        lambda: reference_model.ReferenceSkewedDirectory(
            NUM_CACHES, 5, 2, hash_family=StrongHashFamily(2, 5, seed=3)
        ),
    ),
}

# Long sequences in which sharer additions outnumber removals, so sets fill
# and LRU victims matter.
_operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_sharer", "lookup_add", "acquire_exclusive"] * 2
            + ["remove_sharer", "lookup"]
        ),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=NUM_CACHES - 1),
    ),
    min_size=100,
    max_size=300,
)


def lookup_add(directory, address, cache_id):
    """A read miss's directory work: the lookup, then the sharer addition."""
    return directory.lookup(address), directory.add_sharer(address, cache_id)


@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
@given(operations=_operations)
@settings(max_examples=30, deadline=None)
def test_table_directory_matches_object_reference(organization, operations):
    make, make_reference = ORGANIZATIONS[organization]
    directory = make()
    reference = make_reference()
    for name, address, cache_id in operations:
        if name == "lookup":
            result = directory.lookup(address)
            expected = reference.lookup(address)
        elif name == "lookup_add":
            result = lookup_add(directory, address, cache_id)
            expected = lookup_add(reference, address, cache_id)
        else:
            result = getattr(directory, name)(address, cache_id)
            expected = getattr(reference, name)(address, cache_id)
        assert result == expected, (name, address, cache_id)
    assert directory.stats == reference.stats
    assert directory.entry_count() == reference.entry_count()
    assert sorted(directory.tracked_addresses()) == sorted(
        reference.tracked_addresses()
    )
