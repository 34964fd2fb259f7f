"""Duplicate-Tag coherence directory (Piranha / Niagara style).

The Duplicate-Tag organization mirrors the tag arrays of every tracked
private cache.  Because the mirror has exactly the geometry of the caches
themselves (one frame per cache frame), there is always room to track
every cached block and *no forced invalidations ever occur* — at the cost
of a lookup that must compare against ``cache associativity × number of
caches`` tags (e.g. the 332-wide CAM of the OpenSPARC T2), which is what
makes the design power-hungry at scale (Section 3.1).

Sharer information is implicit: a cache shares a block iff the block's tag
is present in that cache's mirror.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import CacheConfig
from repro.directories.base import (
    Directory,
    Invalidation,
    LookupResult,
    UpdateResult,
)

__all__ = ["DuplicateTagDirectory"]


class _MirrorEntry:
    __slots__ = ("address", "stamp")

    def __init__(self, address: int, stamp: int) -> None:
        self.address = address
        self.stamp = stamp


class DuplicateTagDirectory(Directory):
    """Directory that duplicates every tracked cache's tag array.

    Parameters
    ----------
    num_caches:
        Number of tracked private caches.
    cache_config:
        Geometry of each tracked cache; the mirror per cache has
        ``mirror_sets = cache sets / num_slices`` sets (the slice only
        sees addresses homed to it) and the cache's associativity.
    num_slices:
        How many address-interleaved slices the aggregate directory is
        split into (1 = model the whole directory as a single structure).
    tag_bits:
        Stored tag width, used for bit accounting.
    """

    def __init__(
        self,
        num_caches: int,
        cache_config: CacheConfig,
        num_slices: int = 1,
        tag_bits: int = 36,
    ) -> None:
        super().__init__(num_caches)
        if num_slices <= 0:
            raise ValueError("num_slices must be positive")
        if cache_config.num_sets % num_slices != 0 and cache_config.num_sets >= num_slices:
            # Uneven interleaving is allowed but we round up so capacity is
            # never under-stated.
            pass
        self._cache_config = cache_config
        self._num_slices = num_slices
        self._mirror_sets = max(1, cache_config.num_sets // num_slices)
        self._mirror_ways = cache_config.associativity
        self._tag_bits = tag_bits
        # One mirror tag array per tracked cache: mirrors[cache][set] -> entries.
        self._mirrors: List[List[List[_MirrorEntry]]] = [
            [[] for _ in range(self._mirror_sets)] for _ in range(num_caches)
        ]
        self._clock = 0

    # -- geometry -----------------------------------------------------------
    @property
    def mirror_sets(self) -> int:
        return self._mirror_sets

    @property
    def mirror_ways(self) -> int:
        return self._mirror_ways

    @property
    def lookup_associativity(self) -> int:
        """Tags compared per lookup: cache associativity × number of caches."""
        return self._mirror_ways * self._num_caches

    @property
    def reports_exact_sharers(self) -> bool:
        return True

    @property
    def capacity(self) -> int:
        return self._num_caches * self._mirror_sets * self._mirror_ways

    @property
    def entry_bits(self) -> int:
        return 1 + self._tag_bits

    def entry_count(self) -> int:
        return sum(
            len(entries) for mirror in self._mirrors for entries in mirror
        )

    def tracked_addresses(self) -> List[int]:
        # A block held by several caches has one mirror entry per cache.
        return list(dict.fromkeys(
            entry.address
            for mirror in self._mirrors
            for entries in mirror
            for entry in entries
        ))

    def set_index(self, address: int) -> int:
        return address % self._mirror_sets

    # -- operations -------------------------------------------------------------
    def lookup(self, address: int) -> LookupResult:
        self._stats.lookups += 1
        # Every lookup compares the tags of the indexed set in every mirror.
        self._stats.bits_read += self.lookup_associativity * self._tag_bits
        sharers = frozenset(
            cache_id
            for cache_id in range(self._num_caches)
            if self._find(cache_id, address) is not None
        )
        if sharers:
            self._stats.lookup_hits += 1
            return LookupResult(found=True, sharers=sharers)
        self._stats.lookup_misses += 1
        return LookupResult(found=False)

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        if self._find(cache_id, address) is not None:
            # Already tracked for this cache; refresh recency only.
            self._touch(cache_id, address)
            self._stats.sharer_additions += 1
            return UpdateResult(inserted_new_entry=False, attempts=0)

        already_tracked = any(
            self._find(other, address) is not None
            for other in range(self._num_caches)
        )

        invalidations = []
        entries = self._mirrors[cache_id][self.set_index(address)]
        if len(entries) >= self._mirror_ways:
            # Can only happen when the driver does not mirror cache evictions;
            # victimise the LRU mirror entry and report the forced invalidation.
            victim = min(entries, key=lambda e: e.stamp)
            entries.remove(victim)
            invalidation = Invalidation(
                address=victim.address, caches=frozenset({cache_id})
            )
            invalidations.append(invalidation)
            self._record_forced_invalidation(invalidation)

        self._clock += 1
        entries.append(_MirrorEntry(address=address, stamp=self._clock))
        self._stats.bits_written += self.entry_bits
        if already_tracked:
            self._stats.sharer_additions += 1
        else:
            self._stats.insertions += 1
            self._stats.record_attempts(1)
        return UpdateResult(
            inserted_new_entry=not already_tracked,
            attempts=0 if already_tracked else 1,
            invalidations=tuple(invalidations),
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        entries = self._mirrors[cache_id][self.set_index(address)]
        entry = next((e for e in entries if e.address == address), None)
        if entry is None:
            return
        entries.remove(entry)
        self._stats.sharer_removals += 1
        self._stats.bits_written += self.entry_bits
        still_tracked = any(
            self._find(other, address) is not None
            for other in range(self._num_caches)
        )
        if not still_tracked:
            self._stats.entry_removals += 1

    # -- helpers ---------------------------------------------------------------
    def _find(self, cache_id: int, address: int) -> Optional[_MirrorEntry]:
        entries = self._mirrors[cache_id][self.set_index(address)]
        return next((e for e in entries if e.address == address), None)

    def _touch(self, cache_id: int, address: int) -> None:
        entry = self._find(cache_id, address)
        if entry is not None:
            self._clock += 1
            entry.stamp = self._clock
