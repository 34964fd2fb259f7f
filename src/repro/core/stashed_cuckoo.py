"""Stash-augmented Cuckoo directory (extension).

The paper's related-work section discusses Kirsch, Mitzenmacher and
Wieder's proposal of backing a cuckoo hash with a small CAM *stash* that
absorbs entries whose insertion walk is cut off, and argues that the
Cuckoo *directory* does not need one because it may simply invalidate the
rare overflow victim.  This module implements the stashed variant anyway,
as the natural extension point for studying that trade-off:

* when an insertion walk is cut off, the displaced victim is parked in a
  small fully-associative stash instead of being invalidated;
* lookups, sharer updates and removals consult the stash as well as the
  main table;
* whenever space frees up in the victim's candidate ways, stash entries
  are opportunistically re-inserted into the table;
* only when the stash itself is full does the directory fall back to a
  forced invalidation (of the oldest stash entry), so the plain Cuckoo
  directory is recovered by setting ``stash_entries=0``.

The ablation benchmark ``benchmarks/bench_ablation_stash.py`` quantifies
how much a small stash helps at aggressive (under-provisioned) sizings —
and how little it matters at the paper's chosen 1x/1.5x design points.

The operations below are the stash's public API.  A :class:`~repro.
coherence.system.TiledCMP` runs the same semantics in the compiled drain,
over the table's handles plus the stash and its capacity
(:meth:`StashedCuckooDirectory.drain_handles`).  The stash is a plain
dict, whose insertion order is age order, so the drain reads and writes it
through the dict API.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.cuckoo_hash import InsertOutcome
from repro.directories.base import (
    SHARERS_UPDATED,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector
from repro.hashing.base import HashFamily

__all__ = ["StashedCuckooDirectory"]


class StashedCuckooDirectory(CuckooDirectory):
    """Cuckoo directory with a small fully-associative overflow stash.

    Parameters are those of :class:`CuckooDirectory` plus
    ``stash_entries``, the number of overflow entries the stash can hold
    (a handful, e.g. 4, in the hardware proposals).
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        stash_entries: int = 4,
        hash_family: Optional[HashFamily] = None,
        max_insertion_attempts: int = 32,
    ) -> None:
        if stash_entries < 0:
            raise ValueError("stash_entries must be non-negative")
        super().__init__(
            num_caches=num_caches,
            num_sets=num_sets,
            num_ways=num_ways,
            hash_family=hash_family,
            max_insertion_attempts=max_insertion_attempts,
        )
        self._stash_entries = stash_entries
        # address -> sharer set, in insertion order (oldest first).  The
        # compiled drain holds this dict, so it is never replaced.
        self._stash: Dict[int, FullBitVector] = {}
        self._stash_insertions = 0

    # -- geometry -----------------------------------------------------------
    @property
    def stash_size(self) -> int:
        """Configured stash capacity."""
        return self._stash_entries

    @property
    def stash_occupancy(self) -> int:
        """Entries currently parked in the stash."""
        return len(self._stash)

    @property
    def stash_insertions(self) -> int:
        """How many overflow victims the stash has absorbed."""
        return self._stash_insertions

    @property
    def capacity(self) -> int:
        return super().capacity + self._stash_entries

    def entry_count(self) -> int:
        return super().entry_count() + len(self._stash)

    def tracked_addresses(self) -> List[int]:
        return super().tracked_addresses() + list(self._stash)

    # -- operations -------------------------------------------------------------
    # The stash participates through the lookup/add_sharer/remove_sharer
    # overrides, which the inherited acquire_exclusive composition calls.

    def drain_handles(self) -> tuple:
        """The table's handles for the compiled drain, then the stash and
        its capacity: the drain consults the stash before the table."""
        return super().drain_handles() + (self._stash, self._stash_entries)

    def lookup(self, address: int) -> LookupResult:
        stashed = self._stash.get(address)
        if stashed is None:
            return super().lookup(address)
        self._stats.lookups += 1
        self._stats.lookup_hits += 1
        self._stats.bits_read += self.entry_bits
        return LookupResult(found=True, sharers=stashed.sharers())

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        stashed = self._stash.get(address)
        if stashed is not None:
            stashed.add(cache_id)
            self._stats.sharer_additions += 1
            self._stats.bits_written += self._payload_bits
            return SHARERS_UPDATED

        existing = self._table.get(address)
        if existing is not None:
            return super().add_sharer(address, cache_id)

        # New entry: insert into the main table; a cut-off walk parks the
        # displaced victim in the stash instead of invalidating it.  Reuse
        # a pooled sharer set (the superclass's remove_sharer pools every
        # emptied one; without this pop the pool would only ever grow).
        if self._sharer_pool:
            sharers = self._sharer_pool.pop()
        else:
            sharers = FullBitVector(self._num_caches)
        sharers.add(cache_id)
        result = self._table.insert(address, sharers)
        self._stats.insertions += 1
        self._stats.record_attempts(result.attempts)
        self._stats.bits_written += max(1, result.attempts) * self.entry_bits

        invalidations = ()
        if result.outcome is InsertOutcome.EVICTED_VICTIM:
            invalidations = self._park_in_stash(
                result.evicted_key, result.evicted_value
            )
        return UpdateResult(
            inserted_new_entry=True,
            attempts=result.attempts,
            invalidations=invalidations,
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        stashed = self._stash.get(address)
        if stashed is not None:
            stashed.remove(cache_id)
            self._stats.sharer_removals += 1
            self._stats.bits_written += self._payload_bits
            if stashed.is_empty():
                del self._stash[address]
                self._stats.entry_removals += 1
                self._sharer_pool.append(stashed)
            return
        super().remove_sharer(address, cache_id)
        # Space may have opened up in the table: try to drain the stash.
        self._drain_stash()

    # -- internals ------------------------------------------------------------
    def _park_in_stash(self, address: int, sharers: FullBitVector):
        """Store an overflow victim; invalidate the oldest entry if full."""
        invalidations = ()
        if self._stash_entries == 0:
            invalidation = Invalidation(address=address, caches=sharers.sharers())
            self._record_forced_invalidation(invalidation)
            return (invalidation,)
        if len(self._stash) >= self._stash_entries:
            oldest_address = next(iter(self._stash))
            oldest_sharers = self._stash.pop(oldest_address)
            invalidation = Invalidation(
                address=oldest_address, caches=oldest_sharers.sharers()
            )
            self._record_forced_invalidation(invalidation)
            invalidations = (invalidation,)
        self._stash[address] = sharers
        self._stash_insertions += 1
        self._stats.bits_written += self.entry_bits
        return invalidations

    def _drain_stash(self) -> None:
        """Re-insert stash entries whose candidate slots have space."""
        for address in list(self._stash):
            if not self._table.has_vacant_candidate(address):
                continue
            sharers = self._stash.pop(address)
            result = self._table.insert(address, sharers)
            self._stats.bits_written += self.entry_bits
            # With a vacant candidate the insert cannot evict, but guard the
            # invariant anyway so a future change cannot silently drop data.
            assert result.outcome is not InsertOutcome.EVICTED_VICTIM
