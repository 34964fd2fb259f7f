"""Object-per-entry reference Sparse and Skewed directories (the pre-table design).

These are the original ``SparseDirectory`` and ``SkewedDirectory``
implementations — one ``_SetEntry``/``_WayEntry`` object per entry carrying
its own LRU stamp, victims chosen by ``min(..., key=stamp)`` — retained as
the behavioural oracle for the table-backed organizations
(:class:`repro.directories.table.TableDirectory` with the LRU insert
policy).  ``test_table_directory_reference.py`` drives both through the
same random operation sequences and requires identical results and
statistics.  ``acquire_exclusive`` is the generic composition of
:class:`~repro.directories.base.Directory`.
"""

from typing import List, Optional

from repro.directories.base import (
    LOOKUP_MISS,
    SHARERS_UPDATED,
    Directory,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector
from repro.hashing.base import HashFamily
from repro.hashing.skewing import SkewingHashFamily


class _SetEntry:
    """A directory entry plus the recency stamp used for LRU victimisation."""

    __slots__ = ("address", "sharers", "stamp")

    def __init__(self, address: int, sharers: FullBitVector, stamp: int) -> None:
        self.address = address
        self.sharers = sharers
        self.stamp = stamp


class ReferenceSparseDirectory(Directory):
    """Set-associative directory with LRU victimisation."""

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int,
        tag_bits: int = 36,
    ) -> None:
        super().__init__(num_caches)
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        self._tag_bits = tag_bits
        self._sets: List[List[_SetEntry]] = [[] for _ in range(num_sets)]
        self._clock = 0
        self._entry_bits = 1 + tag_bits + num_caches

    @property
    def capacity(self) -> int:
        return self._num_sets * self._num_ways

    @property
    def entry_bits(self) -> int:
        return self._entry_bits

    def set_index(self, address: int) -> int:
        return address % self._num_sets

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def tracked_addresses(self) -> List[int]:
        return [entry.address for entries in self._sets for entry in entries]

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

        sharers = FullBitVector(self._num_caches)
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

    def _find(self, address: int) -> Optional[_SetEntry]:
        for entry in self._sets[self.set_index(address)]:
            if entry.address == address:
                return entry
        return None

    def _touch(self, entry: _SetEntry) -> None:
        self._clock += 1
        entry.stamp = self._clock


class _WayEntry:
    """One occupied slot: tracked address, sharers and an LRU stamp."""

    __slots__ = ("address", "sharers", "stamp")

    def __init__(self, address: int, sharers: FullBitVector, stamp: int) -> None:
        self.address = address
        self.sharers = sharers
        self.stamp = stamp


class ReferenceSkewedDirectory(Directory):
    """Skewed-associative directory with single-step LRU victimisation."""

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        hash_family: Optional[HashFamily] = None,
        tag_bits: int = 36,
    ) -> None:
        super().__init__(num_caches)
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        self._hashes = hash_family or SkewingHashFamily(num_ways, num_sets)
        if self._hashes.num_ways != num_ways or self._hashes.num_sets != num_sets:
            raise ValueError("hash family geometry does not match the directory")
        self._tag_bits = tag_bits
        # ways[w][s] -> entry or None
        self._ways: List[List[Optional[_WayEntry]]] = [
            [None] * num_sets for _ in range(num_ways)
        ]
        self._live_entries = 0
        self._clock = 0
        self._entry_bits = 1 + tag_bits + num_caches
        self._way_fns = self._hashes.way_functions()

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
        sharers = FullBitVector(self._num_caches)
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
