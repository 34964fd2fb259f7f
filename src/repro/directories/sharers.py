"""The sharer set of one directory entry: a full bit vector.

A directory entry must record *which* private caches hold a block.  The
simulated directories store the paper's exact encoding, one presence bit
per cache (Sections 3.2 and 5.2): the entry width grows linearly with the
cache count.  The paper compares the coarse, limited-pointer and
hierarchical encodings only analytically (Figures 4 and 13), and
:mod:`repro.energy.model` costs them there.

The set stores its membership as one Python integer used as a bitmask
(bit *i* set == cache *i* holds the block) — exactly the presence-bit
vector the hardware stores.  Membership tests are a shift and an AND,
add/remove are single OR/AND-NOT operations, and the simulator's
per-access mutations allocate nothing.  The ``sharers()`` frozenset view
is materialised only when a caller actually needs to fan invalidations
out.  A directory table stores the same presence mask as a plain uint64
per entry (:mod:`repro.core.cuckoo_hash`); :func:`sharers_of` is its
frozenset view.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List

__all__ = ["FullBitVector", "sharers_of"]


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


try:  # int.bit_count is Python >= 3.10; CI also runs 3.9.
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised on older interpreters
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def sharers_of(mask: int) -> FrozenSet[int]:
    """The caches a presence mask names."""
    if not mask & (mask - 1):  # zero or one sharer (the common cases)
        return frozenset((mask.bit_length() - 1,)) if mask else frozenset()
    return frozenset(_iter_bits(mask))


class FullBitVector:
    """Exact full bit-vector sharer set: one presence bit per cache."""

    def __init__(self, num_caches: int) -> None:
        if num_caches <= 0:
            raise ValueError("num_caches must be positive")
        self._num_caches = num_caches
        self._mask = 0

    # -- mutation ------------------------------------------------------------
    def add(self, cache_id: int) -> None:
        """Record that ``cache_id`` holds the block."""
        if not 0 <= cache_id < self._num_caches:
            self._check_cache(cache_id)
        self._mask |= 1 << cache_id

    def remove(self, cache_id: int) -> None:
        """Record that ``cache_id`` no longer holds the block.

        Removing a cache that is not a member is a no-op, matching the
        behaviour of hardware directories that receive redundant eviction
        notifications.
        """
        if not 0 <= cache_id < self._num_caches:
            self._check_cache(cache_id)
        self._mask &= ~(1 << cache_id)

    def clear(self) -> None:
        """Drop all sharers (entry invalidated)."""
        self._mask = 0

    # -- queries -------------------------------------------------------------
    def member_mask(self) -> int:
        """The sharers as a presence bitmask (LSB = cache 0)."""
        return self._mask

    def sharers(self) -> FrozenSet[int]:
        """The caches that hold the block (and must receive an invalidation)."""
        return sharers_of(self._mask)

    def is_empty(self) -> bool:
        return not self._mask

    def count(self) -> int:
        """Number of sharers."""
        return _popcount(self._mask)

    def contains(self, cache_id: int) -> bool:
        self._check_cache(cache_id)
        return (self._mask >> cache_id) & 1 == 1

    @property
    def num_caches(self) -> int:
        return self._num_caches

    def as_bits(self) -> List[int]:
        """The presence bit vector, LSB = cache 0 (useful for tests)."""
        return [(self._mask >> i) & 1 for i in range(self._num_caches)]

    @classmethod
    def storage_bits(cls, num_caches: int) -> int:
        """Entry width in bits for a system with ``num_caches`` caches."""
        return num_caches

    # -- helpers -------------------------------------------------------------
    def _check_cache(self, cache_id: int) -> None:
        if not 0 <= cache_id < self._num_caches:
            raise IndexError(
                f"cache id {cache_id} out of range [0, {self._num_caches})"
            )

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self._mask)

    def __len__(self) -> int:
        return _popcount(self._mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = ",".join(str(i) for i in _iter_bits(self._mask))
        return f"{type(self).__name__}«{ids}»"
