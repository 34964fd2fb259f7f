"""Property tests: the bitmask sharer set vs a plain-``set`` reference.

The bitmask rewrite must be observationally identical to the original
set-backed implementation.  We drive random add/remove/clear sequences
against a reference model that tracks the members in a plain set, then
assert after every operation that ``sharers()``, counts, membership,
emptiness, iteration order, the bit vector and the storage width agree,
at 16 caches, at 64 (the widest mask the compiled drain holds) and at 128.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.directories.sharers import FullBitVector

WIDTHS = (16, 64, 128)

# Cache ids are drawn below 128 and reduced modulo the width; 128 is a
# multiple of every width, so the ids stay uniform.
operations = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "clear"]), st.integers(0, 127)),
    max_size=80,
)


def _apply(model, reference, op, cache_id):
    if op == "add":
        model.add(cache_id)
        reference.add(cache_id)
    elif op == "remove":
        model.remove(cache_id)
        reference.discard(cache_id)
    else:
        model.clear()
        reference.clear()


def _check_common(model, reference, num_caches):
    assert model.count() == len(reference)
    assert len(model) == len(reference)
    assert model.is_empty() == (not reference)
    assert list(model) == sorted(reference)
    assert model.member_mask() == sum(1 << c for c in reference)
    for cache_id in range(num_caches):
        assert model.contains(cache_id) == (cache_id in reference)


@given(ops=operations)
@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("num_caches", WIDTHS)
def test_full_bit_vector_matches_reference(num_caches, ops):
    model = FullBitVector(num_caches)
    reference = set()
    for op, cache_id in ops:
        _apply(model, reference, op, cache_id % num_caches)
        _check_common(model, reference, num_caches)
        assert model.sharers() == frozenset(reference)
        assert model.as_bits() == [
            1 if c in reference else 0 for c in range(num_caches)
        ]
    assert FullBitVector.storage_bits(num_caches) == num_caches


@pytest.mark.parametrize("num_caches", WIDTHS)
def test_storage_width_is_stable_under_mutation(num_caches):
    """storage_bits is a class property; instances never change the width."""
    width = FullBitVector.storage_bits(num_caches)
    model = FullBitVector(num_caches)
    for cache_id in range(num_caches):
        model.add(cache_id)
        assert FullBitVector.storage_bits(num_caches) == width
    model.clear()
    assert FullBitVector.storage_bits(num_caches) == width
