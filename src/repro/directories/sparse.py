"""Sparse (set-associative) coherence directory.

The Sparse directory [Gupta et al. '90] reduces the associativity of the
Duplicate-Tag organization by spreading entries across many sets indexed
by low-order tag bits.  Because the one-to-one correspondence between
directory entries and cache frames is lost, each entry carries an explicit
sharer set.  The cost is *set conflicts*: when a set fills up, inserting a
new entry forces a live entry out, and the blocks it tracked must be
invalidated in the private caches (a *forced invalidation*, Figure 12's
metric).  The paper evaluates Sparse directories at 2x and 8x capacity
over-provisioning to keep that conflict rate down.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Type

from repro.directories.base import (
    LOOKUP_MISS,
    SHARERS_UPDATED,
    Directory,
    DirectoryEntry,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector, SharerSet

__all__ = ["SparseDirectory"]


class _SetEntry:
    """A directory entry plus the recency stamp used for LRU victimisation."""

    __slots__ = ("address", "sharers", "stamp")

    def __init__(self, address: int, sharers: SharerSet, stamp: int) -> None:
        self.address = address
        self.sharers = sharers
        self.stamp = stamp


class SparseDirectory(Directory):
    """Set-associative directory with LRU victimisation.

    Parameters
    ----------
    num_caches:
        Number of private caches tracked (width of the sharer sets).
    num_sets, num_ways:
        Geometry of the tag store.  Capacity is ``num_sets * num_ways``.
    sharer_cls:
        Sharer-set representation (default: exact full bit vector).
    tag_bits:
        Stored tag width, used only for the bits-read/bits-written
        accounting surfaced in :class:`DirectoryStats`.
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int,
        sharer_cls: Type[SharerSet] = FullBitVector,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> None:
        super().__init__(num_caches)
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        self._sharer_cls = sharer_cls
        self._sharer_kwargs = sharer_kwargs
        self._tag_bits = tag_bits
        self._sets: List[List[_SetEntry]] = [[] for _ in range(num_sets)]
        self._clock = 0
        self._entry_bits = 1 + tag_bits + sharer_cls.storage_bits(
            num_caches, **sharer_kwargs
        )

    # -- geometry --------------------------------------------------------
    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def num_ways(self) -> int:
        return self._num_ways

    @property
    def reports_exact_sharers(self) -> bool:
        return self._sharer_cls is FullBitVector

    @property
    def capacity(self) -> int:
        return self._num_sets * self._num_ways

    @property
    def entry_bits(self) -> int:
        """Width of one directory entry (tag + sharer encoding + valid bit)."""
        return self._entry_bits

    def set_index(self, address: int) -> int:
        return address % self._num_sets

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def tracked_addresses(self) -> List[int]:
        return [entry.address for entries in self._sets for entry in entries]

    # -- operations -------------------------------------------------------
    def lookup(self, address: int) -> LookupResult:
        self._stats.lookups += 1
        self._stats.bits_read += self._num_ways * self._tag_bits
        entry = self._find(address)
        if entry is None:
            self._stats.lookup_misses += 1
            return LOOKUP_MISS
        self._stats.lookup_hits += 1
        self._stats.bits_read += self.entry_bits - self._tag_bits
        return LookupResult(found=True, sharers=entry.sharers.sharers())

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        entry = self._find(address)
        if entry is not None:
            entry.sharers.add(cache_id)
            self._touch(entry)
            self._stats.sharer_additions += 1
            self._stats.bits_written += self.entry_bits - self._tag_bits
            return SHARERS_UPDATED

        # Allocate a new entry; a full set forces an invalidation of the victim.
        invalidations = []
        set_index = self.set_index(address)
        entries = self._sets[set_index]
        if len(entries) >= self._num_ways:
            victim = min(entries, key=lambda e: e.stamp)
            entries.remove(victim)
            invalidation = Invalidation(
                address=victim.address, caches=victim.sharers.sharers()
            )
            invalidations.append(invalidation)
            self._record_forced_invalidation(invalidation)

        sharers = self._sharer_cls(self._num_caches, **self._sharer_kwargs)
        sharers.add(cache_id)
        new_entry = _SetEntry(address=address, sharers=sharers, stamp=0)
        self._touch(new_entry)
        entries.append(new_entry)
        self._stats.insertions += 1
        self._stats.record_attempts(1)
        self._stats.bits_written += self.entry_bits
        return UpdateResult(
            inserted_new_entry=True, attempts=1, invalidations=tuple(invalidations)
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        entry = self._find(address)
        if entry is None:
            return
        entry.sharers.remove(cache_id)
        self._stats.sharer_removals += 1
        self._stats.bits_written += self.entry_bits - self._tag_bits
        if entry.sharers.is_empty():
            self._sets[self.set_index(address)].remove(entry)
            self._stats.entry_removals += 1

    # -- helpers -------------------------------------------------------------
    def _find(self, address: int) -> Optional[_SetEntry]:
        for entry in self._sets[self.set_index(address)]:
            if entry.address == address:
                return entry
        return None

    def _touch(self, entry: _SetEntry) -> None:
        self._clock += 1
        entry.stamp = self._clock

    @classmethod
    def with_provisioning(
        cls,
        num_caches: int,
        tracked_frames: int,
        num_ways: int,
        provisioning: float,
        sharer_cls: Type[SharerSet] = FullBitVector,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> "SparseDirectory":
        """Build a Sparse directory sized at ``provisioning`` times the
        worst-case number of tracked blocks (the paper's 2x / 8x points)."""
        if provisioning <= 0:
            raise ValueError("provisioning must be positive")
        capacity = max(num_ways, int(round(tracked_frames * provisioning)))
        num_sets = max(1, capacity // num_ways)
        # Round the set count to a power of two, as a hardware indexer would.
        num_sets = 2 ** max(0, round(math.log2(num_sets)))
        return cls(
            num_caches=num_caches,
            num_sets=num_sets,
            num_ways=num_ways,
            sharer_cls=sharer_cls,
            tag_bits=tag_bits,
            **sharer_kwargs,
        )
