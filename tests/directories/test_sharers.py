"""Tests for the sharer set (the full bit vector).

Every behaviour is checked at three widths: 16 caches, 64 (the most a
compiled-drain mask holds; cache 63 is its top bit) and 128 (a mask wider
than a machine word, which only the handler loop serves).  Where a test
adds caches it includes the highest id, so the top bit of each width is
exercised.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.directories.sharers import FullBitVector

WIDTHS = (16, 64, 128)


@pytest.mark.parametrize("num_caches", WIDTHS)
class TestCommonBehaviour:
    def test_starts_empty(self, num_caches):
        sharers = FullBitVector(num_caches)
        assert sharers.is_empty()
        assert sharers.count() == 0
        assert sharers.sharers() == frozenset()
        assert sharers.member_mask() == 0

    def test_add_and_contains(self, num_caches):
        top = num_caches - 1
        sharers = FullBitVector(num_caches)
        sharers.add(3)
        sharers.add(top)
        assert sharers.contains(3) and sharers.contains(top)
        assert not sharers.contains(top - 1)
        assert not sharers.is_empty()
        assert sharers.sharers() == frozenset({3, top})
        assert sharers.member_mask() == (1 << 3) | (1 << top)

    def test_remove_returns_to_empty(self, num_caches):
        top = num_caches - 1
        sharers = FullBitVector(num_caches)
        sharers.add(5)
        sharers.add(top)
        sharers.remove(top)
        sharers.remove(5)
        assert sharers.is_empty()

    def test_remove_non_member_is_noop(self, num_caches):
        sharers = FullBitVector(num_caches)
        sharers.add(1)
        sharers.remove(7)
        sharers.remove(num_caches - 1)
        assert sharers.count() == 1

    def test_double_add_is_idempotent(self, num_caches):
        top = num_caches - 1
        sharers = FullBitVector(num_caches)
        sharers.add(top)
        sharers.add(top)
        assert sharers.count() == 1

    def test_clear(self, num_caches):
        sharers = FullBitVector(num_caches)
        for cache in (0, 3, 9, num_caches - 1):
            sharers.add(cache)
        sharers.clear()
        assert sharers.is_empty()
        assert sharers.sharers() == frozenset()

    def test_sharers_are_exactly_the_members(self, num_caches):
        sharers = FullBitVector(num_caches)
        members = {1, 4, 7, 11, 14, num_caches - 1}
        for cache in members:
            sharers.add(cache)
        assert sharers.sharers() == frozenset(members)

    def test_out_of_range_cache_rejected(self, num_caches):
        sharers = FullBitVector(num_caches)
        with pytest.raises(IndexError):
            sharers.add(num_caches)
        with pytest.raises(IndexError):
            sharers.remove(-1)
        with pytest.raises(IndexError):
            sharers.contains(num_caches)

    def test_storage_is_one_bit_per_cache(self, num_caches):
        assert FullBitVector.storage_bits(num_caches) == num_caches

    def test_iteration_yields_sorted_members(self, num_caches):
        sharers = FullBitVector(num_caches)
        for cache in (num_caches - 1, 9, 2, 5):
            sharers.add(cache)
        assert list(sharers) == [2, 5, 9, num_caches - 1]

    def test_len_matches_count(self, num_caches):
        sharers = FullBitVector(num_caches)
        sharers.add(0)
        sharers.add(num_caches - 1)
        assert len(sharers) == sharers.count() == 2

    def test_as_bits(self, num_caches):
        sharers = FullBitVector(num_caches)
        sharers.add(0)
        sharers.add(2)
        sharers.add(num_caches - 1)
        bits = sharers.as_bits()
        assert len(bits) == num_caches
        assert [i for i, bit in enumerate(bits) if bit] == [0, 2, num_caches - 1]


def test_rejects_zero_caches():
    with pytest.raises(ValueError):
        FullBitVector(0)


@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 127)),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("num_caches", WIDTHS)
def test_property_sharers_never_miss_a_true_member(num_caches, operations):
    """After any operation sequence, the sharers are the true members."""
    sharers = FullBitVector(num_caches)
    reference = set()
    for op, cache in operations:
        cache %= num_caches  # 128 is a multiple of every width: uniform ids
        if op == "add":
            sharers.add(cache)
            reference.add(cache)
        else:
            sharers.remove(cache)
            reference.discard(cache)
    assert sharers.sharers() == frozenset(reference)
    assert sharers.count() == len(reference)
