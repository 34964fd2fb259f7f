"""Skewed-associative coherence directory (the "Skewed 2x" baseline).

Adapted from the skewed-associative cache [Seznec '93]: each way is a
direct-mapped array indexed by a *different* hash function, which breaks
most (but not all) conflict clusters and roughly doubles the perceived
associativity.  Crucially — and this is the distinction the paper draws in
Section 4.1 — the insertion procedure is still conventional: when all of a
block's candidate slots are occupied, one of them is victimised
immediately.  There is no displacement walk, so transitive conflicts still
cause forced invalidations, just less often than in a Sparse directory of
the same geometry.
"""

from __future__ import annotations

from typing import List, Optional, Type

from repro.directories.base import (
    LOOKUP_MISS,
    SHARERS_UPDATED,
    Directory,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector, SharerSet
from repro.hashing.base import HashFamily
from repro.hashing.skewing import SkewingHashFamily

__all__ = ["SkewedDirectory"]


class _WayEntry:
    """One occupied slot: tracked address, sharers and an LRU stamp."""

    __slots__ = ("address", "sharers", "stamp")

    def __init__(self, address: int, sharers: SharerSet, stamp: int) -> None:
        self.address = address
        self.sharers = sharers
        self.stamp = stamp


class SkewedDirectory(Directory):
    """Skewed-associative directory with single-step LRU victimisation."""

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        hash_family: Optional[HashFamily] = None,
        sharer_cls: Type[SharerSet] = FullBitVector,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> None:
        super().__init__(num_caches)
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        self._hashes = hash_family or SkewingHashFamily(num_ways, num_sets)
        if self._hashes.num_ways != num_ways or self._hashes.num_sets != num_sets:
            raise ValueError("hash family geometry does not match the directory")
        self._sharer_cls = sharer_cls
        self._sharer_kwargs = sharer_kwargs
        self._tag_bits = tag_bits
        # ways[w][s] -> entry or None
        self._ways: List[List[Optional[_WayEntry]]] = [
            [None] * num_sets for _ in range(num_ways)
        ]
        self._live_entries = 0
        self._clock = 0
        self._entry_bits = 1 + tag_bits + sharer_cls.storage_bits(
            num_caches, **sharer_kwargs
        )
        self._way_fns = self._hashes.way_functions()

    # -- geometry -----------------------------------------------------------
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
        return self._entry_bits

    def entry_count(self) -> int:
        return self._live_entries

    def tracked_addresses(self) -> List[int]:
        return [entry.address for way in self._ways for entry in way if entry]

    # -- operations ------------------------------------------------------------
    def lookup(self, address: int) -> LookupResult:
        self._stats.lookups += 1
        self._stats.bits_read += self._num_ways * self._tag_bits
        found = self._find(address)
        if found is None:
            self._stats.lookup_misses += 1
            return LOOKUP_MISS
        self._stats.lookup_hits += 1
        self._stats.bits_read += self.entry_bits - self._tag_bits
        _, _, entry = found
        return LookupResult(found=True, sharers=entry.sharers.sharers())

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        found = self._find(address)
        if found is not None:
            _, _, entry = found
            entry.sharers.add(cache_id)
            self._touch(entry)
            self._stats.sharer_additions += 1
            self._stats.bits_written += self.entry_bits - self._tag_bits
            return SHARERS_UPDATED

        invalidations = []
        candidates = [
            (way, fn(address)) for way, fn in enumerate(self._way_fns)
        ]
        slot = next(
            ((w, s) for w, s in candidates if self._ways[w][s] is None), None
        )
        if slot is None:
            # All candidate slots occupied: victimise the least recently used
            # one.  This is the single-step insertion that distinguishes the
            # skewed organization from the Cuckoo directory.
            way, set_index = min(
                candidates, key=lambda ws: self._ways[ws[0]][ws[1]].stamp
            )
            victim = self._ways[way][set_index]
            assert victim is not None
            invalidation = Invalidation(
                address=victim.address, caches=victim.sharers.sharers()
            )
            invalidations.append(invalidation)
            self._record_forced_invalidation(invalidation)
            self._ways[way][set_index] = None
            self._live_entries -= 1
            slot = (way, set_index)

        way, set_index = slot
        sharers = self._sharer_cls(self._num_caches, **self._sharer_kwargs)
        sharers.add(cache_id)
        entry = _WayEntry(address=address, sharers=sharers, stamp=0)
        self._touch(entry)
        self._ways[way][set_index] = entry
        self._live_entries += 1
        self._stats.insertions += 1
        self._stats.record_attempts(1)
        self._stats.bits_written += self.entry_bits
        return UpdateResult(
            inserted_new_entry=True, attempts=1, invalidations=tuple(invalidations)
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        found = self._find(address)
        if found is None:
            return
        way, set_index, entry = found
        entry.sharers.remove(cache_id)
        self._stats.sharer_removals += 1
        self._stats.bits_written += self.entry_bits - self._tag_bits
        if entry.sharers.is_empty():
            self._ways[way][set_index] = None
            self._live_entries -= 1
            self._stats.entry_removals += 1

    # -- helpers -------------------------------------------------------------
    def _find(self, address: int):
        ways = self._ways
        for way, fn in enumerate(self._way_fns):
            set_index = fn(address)
            entry = ways[way][set_index]
            if entry is not None and entry.address == address:
                return way, set_index, entry
        return None

    def _touch(self, entry: _WayEntry) -> None:
        self._clock += 1
        entry.stamp = self._clock
