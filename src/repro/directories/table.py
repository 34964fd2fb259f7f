"""One table-backed directory for the Cuckoo, Sparse and Skewed organizations.

The three organizations store their entries the same way — one hashed
slot per way in a :class:`~repro.core.cuckoo_hash.CuckooHashTable` — and
differ only in the table's index functions and insert policy, which their
constructors choose:

* **Cuckoo** (:mod:`repro.core.cuckoo_directory`): skewing (or strong)
  hashes, displacement walk when every candidate is full;
* **Skewed** (:mod:`repro.directories.skewed`): skewing hashes, LRU
  candidate evicted at once;
* **Sparse** (:mod:`repro.directories.sparse`): every way indexed by
  ``address % num_sets``, LRU way evicted at once.

:class:`TableDirectory` is the one implementation of the directory
operations over that table, and the one source of the compiled drain's
state for a slice (:meth:`TableDirectory.drain_state`): the table's typed
buffers, the statistics row, and the stash's buffers (empty here; the
stashed variant sizes them).

Statistics follow the paper's accounting rules (Section 5.2):

* a lookup always precedes an insertion; if it reveals a vacant candidate
  slot the insertion counts one attempt;
* adding a sharer to an existing entry does not count as an insertion;
* entries become free (and reusable) when the last sharer evicts the
  block;
* when an insertion cannot place its entry without losing one (a cut-off
  walk, or an LRU eviction), the lost entry is reported as a forced
  invalidation so the private caches can be kept consistent.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List

from repro.directories.base import (
    LOOKUP_MISS,
    SHARERS_UPDATED,
    Directory,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.base import DirectoryStats
from repro.directories.sharers import FullBitVector, sharers_of

if TYPE_CHECKING:  # repro.core imports this module
    from repro.core.cuckoo_hash import CuckooHashTable

__all__ = ["TAG_BITS", "TableDirectory"]

#: Stored tag width of every entry, used only for the bits-read/written
#: accounting in :class:`~repro.directories.base.DirectoryStats`.
TAG_BITS = 36


class TableDirectory(Directory):
    """Coherence directory over a cuckoo hash table of sharer sets.

    Parameters
    ----------
    num_caches:
        Number of tracked private caches (sharer-set width).
    table:
        The tag store, built by the organization's constructor with its
        hash family and insert policy.  Each entry's value is its sharers'
        presence mask (bit *i* set: cache *i* holds the block).
    """

    def __init__(self, num_caches: int, table: "CuckooHashTable") -> None:
        super().__init__(num_caches)
        self._table = table
        self._stats = DirectoryStats(table.max_attempts + 1)
        # Entry width (valid bit, tag, sharer vector) and the per-operation
        # bit costs, computed once so the accounting does not re-derive them.
        self._entry_bits = 1 + TAG_BITS + FullBitVector.storage_bits(num_caches)
        self._lookup_tag_bits = table.num_ways * TAG_BITS
        self._payload_bits = self._entry_bits - TAG_BITS
        # The overflow stash (StashedCuckooDirectory sizes it): keys oldest
        # first and packed, -1 after the last, their masks, and how many
        # entries it has absorbed.
        self._stash_keys = array("q")
        self._stash_masks = array("Q")
        self._parks = array("q", [0])

    # -- geometry -----------------------------------------------------------
    @property
    def num_ways(self) -> int:
        return self._table.num_ways

    @property
    def num_sets(self) -> int:
        return self._table.num_sets

    @property
    def capacity(self) -> int:
        return self._table.capacity

    @property
    def table(self) -> "CuckooHashTable":
        """The underlying hash table (exposed for analysis)."""
        return self._table

    @property
    def entry_bits(self) -> int:
        """Width of one directory entry (valid bit + tag + sharer vector)."""
        return self._entry_bits

    def entry_count(self) -> int:
        return len(self._table)

    def tracked_addresses(self) -> List[int]:
        return list(self._table.keys())

    # -- operations -------------------------------------------------------------
    def lookup(self, address: int) -> LookupResult:
        stats = self._stats
        stats.lookups += 1
        # A lookup reads the tags of all ways in parallel plus the matching
        # entry's sharer bits — the same cost as a set-associative lookup.
        stats.bits_read += self._lookup_tag_bits
        sharers = self._table.get(address)
        if sharers is None:
            stats.lookup_misses += 1
            return LOOKUP_MISS
        stats.lookup_hits += 1
        stats.bits_read += self._payload_bits
        return LookupResult(found=True, sharers=sharers_of(sharers))

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        existing = self._table.touch_slot(address)
        if existing is not None:
            way, index, sharers = existing
            self._table.set_value(way, index, sharers | 1 << cache_id)
            stats = self._stats
            stats.sharer_additions += 1
            stats.bits_written += self._payload_bits
            return SHARERS_UPDATED
        return self._insert_new_entry(address, cache_id)

    def _insert_new_entry(self, address: int, cache_id: int) -> UpdateResult:
        """Allocate a fresh entry for ``address`` with ``cache_id`` as sharer."""
        result = self._table.insert_absent(address, 1 << cache_id)
        stats = self._stats
        attempts = result.attempts
        stats.insertions += 1
        stats.record_attempts(attempts)
        # Every placement rewrites one entry (attempts >= 1 for every
        # insert_absent outcome).
        stats.bits_written += attempts * self._entry_bits
        if not result.evicted:
            return UpdateResult(inserted_new_entry=True, attempts=attempts)
        return UpdateResult(
            inserted_new_entry=True,
            attempts=attempts,
            invalidations=self._evicted(result.evicted_key, result.evicted_value),
        )

    def _evicted(self, address: int, sharers: int) -> tuple:
        """A live entry that left the directory: a forced invalidation."""
        invalidation = Invalidation(address=address, caches=sharers_of(sharers))
        self._record_forced_invalidation(invalidation)
        return (invalidation,)

    def drain_state(self) -> tuple:
        """This slice's state as the compiled drain reads it: the table's
        (:meth:`~repro.core.cuckoo_hash.CuckooHashTable.drain_state`), the
        statistics row, the stash's keys, masks and parks counter, and the
        bits of a lookup's tags, a sharer update and an entry."""
        return (
            self._table.drain_state(), self._stats._row, self._stash_keys,
            self._stash_masks, self._parks, self._lookup_tag_bits,
            self._payload_bits, self._entry_bits,
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        slot = self._table.get_slot(address)
        if slot is None:
            return
        way, index, sharers = slot
        sharers &= ~(1 << cache_id)
        self._table.set_value(way, index, sharers)
        stats = self._stats
        stats.sharer_removals += 1
        stats.bits_written += self._payload_bits
        if not sharers:
            self._table.clear_slot(way, index)
            stats.entry_removals += 1
