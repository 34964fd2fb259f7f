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
over the same typed buffers (:meth:`~repro.directories.table.
TableDirectory.drain_state`): the stash is an age-ordered pair of arrays,
int64 keys (oldest first, packed, -1 after the last) and uint64 sharer
masks, and a counter of the entries it has absorbed.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.cuckoo_hash import InsertOutcome
from repro.directories.base import SHARERS_UPDATED, LookupResult, UpdateResult
from repro.directories.sharers import sharers_of
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
        self._stash_keys = array("q", [-1]) * stash_entries
        self._stash_masks = array("Q", bytes(8 * stash_entries))

    # -- geometry -----------------------------------------------------------
    @property
    def stash_size(self) -> int:
        """Configured stash capacity."""
        return len(self._stash_keys)

    @property
    def stash_occupancy(self) -> int:
        """Entries currently parked in the stash."""
        return self.stash_size - self._stash_keys.count(-1)

    @property
    def stash_insertions(self) -> int:
        """How many overflow victims the stash has absorbed."""
        return self._parks[0]

    @property
    def capacity(self) -> int:
        return super().capacity + self.stash_size

    def entry_count(self) -> int:
        return super().entry_count() + self.stash_occupancy

    def tracked_addresses(self) -> List[int]:
        return super().tracked_addresses() + [key for key, _ in self.stash_items()]

    def stash_items(self) -> List[Tuple[int, int]]:
        """The parked ``(address, sharer mask)`` pairs, oldest first."""
        return list(zip(self._stash_keys, self._stash_masks))[: self.stash_occupancy]

    # -- operations -------------------------------------------------------------
    # The stash participates through the lookup/add_sharer/remove_sharer
    # overrides, which the inherited acquire_exclusive composition calls.

    def lookup(self, address: int) -> LookupResult:
        position = self._stashed(address)
        if position < 0:
            return super().lookup(address)
        self._stats.lookups += 1
        self._stats.lookup_hits += 1
        self._stats.bits_read += self.entry_bits
        return LookupResult(found=True, sharers=sharers_of(self._stash_masks[position]))

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        position = self._stashed(address)
        if position >= 0:
            self._stash_masks[position] |= 1 << cache_id
            self._stats.sharer_additions += 1
            self._stats.bits_written += self._payload_bits
            return SHARERS_UPDATED

        if address in self._table:
            return super().add_sharer(address, cache_id)

        # New entry: insert into the main table; a cut-off walk parks the
        # displaced victim in the stash instead of invalidating it.
        result = self._table.insert(address, 1 << cache_id)
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
        position = self._stashed(address)
        if position >= 0:
            self._stash_masks[position] &= ~(1 << cache_id)
            self._stats.sharer_removals += 1
            self._stats.bits_written += self._payload_bits
            if not self._stash_masks[position]:
                self._unstash(position)
                self._stats.entry_removals += 1
            return
        super().remove_sharer(address, cache_id)
        # Space may have opened up in the table: try to drain the stash.
        self._drain_stash()

    # -- internals ------------------------------------------------------------
    def _stashed(self, address: int) -> int:
        """The stash position of ``address``, or -1."""
        keys = self._stash_keys
        return keys.index(address) if address >= 0 and address in keys else -1

    def _unstash(self, position: int) -> Tuple[int, int]:
        """Take the entry at ``position`` out; the younger ones move up."""
        keys, masks = self._stash_keys, self._stash_masks
        entry = keys[position], masks[position]
        for younger in range(position + 1, len(keys)):
            keys[younger - 1], masks[younger - 1] = keys[younger], masks[younger]
        keys[-1], masks[-1] = -1, 0
        return entry

    def _park_in_stash(self, address: int, sharers: int):
        """Store an overflow victim; invalidate the oldest entry if full."""
        if self.stash_size == 0:
            return self._evicted(address, sharers)
        invalidations = ()
        if self.stash_occupancy == self.stash_size:
            invalidations = self._evicted(*self._unstash(0))
        position = self.stash_occupancy
        self._stash_keys[position] = address
        self._stash_masks[position] = sharers
        self._parks[0] += 1
        self._stats.bits_written += self.entry_bits
        return invalidations

    def _drain_stash(self) -> None:
        """Re-insert stash entries whose candidate slots have space."""
        for address, _ in self.stash_items():
            if not self._table.has_vacant_candidate(address):
                continue
            result = self._table.insert(*self._unstash(self._stashed(address)))
            self._stats.bits_written += self.entry_bits
            # With a vacant candidate the insert cannot evict, but guard the
            # invariant anyway so a future change cannot silently drop data.
            assert result.outcome is not InsertOutcome.EVICTED_VICTIM
