"""Common directory interface and statistics.

Every directory organization in this library — the baselines in
:mod:`repro.directories` and the Cuckoo directory in :mod:`repro.core` —
implements :class:`Directory`.  The interface is deliberately small and
mirrors what a directory controller does on behalf of the coherence
protocol:

* ``lookup(address)`` — find the sharers of a block (read misses and
  write misses both start here);
* ``add_sharer(address, cache_id)`` — record a new sharer, allocating a
  new entry if the block is not yet tracked; this is the operation that
  can *force invalidations* when the organization runs out of
  non-conflicting space;
* ``remove_sharer(address, cache_id)`` — a private cache evicted the
  block; the entry becomes free when the last sharer leaves;
* ``acquire_exclusive(address, cache_id)`` — a write: every other sharer
  must be invalidated and the writer becomes the only sharer.

All organizations maintain the same :class:`DirectoryStats`, which the
experiments read to reproduce the paper's occupancy, insertion-attempt
and forced-invalidation figures, and which the energy model uses to
weight per-operation access energies.
"""

from __future__ import annotations

import abc
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = [
    "DirectoryStats",
    "LookupResult",
    "UpdateResult",
    "Invalidation",
    "Directory",
]


@dataclass(frozen=True)
class Invalidation:
    """A block that must be invalidated in a set of private caches.

    Produced when a directory organization victimises a live entry (a
    *forced* invalidation, the paper's key quality metric) and consumed by
    the coherence layer, which removes the block from the named caches.
    """

    address: int
    caches: FrozenSet[int]

    @property
    def num_messages(self) -> int:
        return len(self.caches)


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a directory lookup."""

    found: bool
    sharers: FrozenSet[int] = frozenset()

    def __bool__(self) -> bool:
        return self.found


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of a directory update (``add_sharer`` / ``acquire_exclusive``).

    ``invalidations`` lists blocks that had to be forcibly evicted from
    private caches to make room (set-conflict victims or failed cuckoo
    walks).  ``coherence_invalidations`` lists caches that must drop the
    *accessed* block because a writer requested exclusivity — those are
    ordinary protocol invalidations, not forced ones, and are not counted
    against the directory organization.
    """

    inserted_new_entry: bool = False
    attempts: int = 0
    invalidations: Tuple[Invalidation, ...] = ()
    coherence_invalidations: FrozenSet[int] = frozenset()

    @property
    def forced_invalidation_count(self) -> int:
        return len(self.invalidations)


#: Shared immutable results for the two most common directory outcomes:
#: a lookup miss and an in-place sharer update.  Both classes are frozen,
#: so handing every caller the same instance is safe and saves one
#: dataclass construction per directory operation on the hot path.
LOOKUP_MISS = LookupResult(found=False)
SHARERS_UPDATED = UpdateResult(inserted_new_entry=False, attempts=0)


#: The counters of a statistics row, in column order (``S_*`` in
#: ``_kernels.c``); the attempt histogram follows them.
_COUNTERS = (
    "lookups", "lookup_hits", "lookup_misses", "insertions", "insertion_attempts",
    "sharer_additions", "sharer_removals", "entry_removals",
    "invalidate_all_operations", "forced_invalidations",
    "forced_invalidation_messages", "bits_read", "bits_written",
)
_HISTOGRAM = len(_COUNTERS)


class DirectoryStats:
    """Event counters shared by every directory organization.

    The counters live in one int64 row: the fields of ``_COUNTERS``, then the
    attempt histogram (column ``_HISTOGRAM + n`` counts the insertions that
    took ``n`` attempts; ``histogram_bins`` sizes it, and it grows when an
    insertion needs more).  A table directory's compiled drain counts into
    its row in place.  Occupancy samples are taken in Python and kept
    beside the row.
    """

    __slots__ = ("_row", "occupancy_samples", "occupancy_sum")

    def __init__(self, histogram_bins: int = 2) -> None:
        self._row = array("q", bytes(8 * (_HISTOGRAM + histogram_bins)))
        self.occupancy_samples = 0
        self.occupancy_sum = 0.0

    @property
    def attempt_histogram(self) -> Counter:
        """Insertions per attempt count (a copy of the row's histogram)."""
        return Counter(
            {attempts: count for attempts, count in enumerate(self.histogram) if count}
        )

    # -- derived metrics -----------------------------------------------------
    @property
    def average_insertion_attempts(self) -> float:
        """Average attempts per new-entry insertion (Figures 9 and 10)."""
        if self.insertions == 0:
            return 0.0
        return self.insertion_attempts / self.insertions

    @property
    def forced_invalidation_rate(self) -> float:
        """Forced invalidations as a fraction of entry insertions (Figure 12)."""
        if self.insertions == 0:
            return 0.0
        return self.forced_invalidations / self.insertions

    @property
    def average_occupancy(self) -> float:
        """Mean directory occupancy over all recorded samples (Figure 8)."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.lookup_hits / self.lookups

    def record_occupancy(self, occupancy: float) -> None:
        self.occupancy_samples += 1
        self.occupancy_sum += occupancy

    def record_attempts(self, attempts: int) -> None:
        self.insertion_attempts += attempts
        row = self._row
        if _HISTOGRAM + attempts >= len(row):
            row.extend(array("q", bytes(8 * (_HISTOGRAM + attempts + 1 - len(row)))))
        row[_HISTOGRAM + attempts] += 1

    def attempt_distribution(self) -> Dict[int, float]:
        """Normalised insertion-attempt histogram (Figure 11)."""
        histogram = self.attempt_histogram
        total = sum(histogram.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(histogram.items())}

    def clear(self) -> None:
        """Zero every counter in place (the drain keeps counting into the row)."""
        self._row[:] = array("q", bytes(8 * len(self._row)))
        self.occupancy_samples = 0
        self.occupancy_sum = 0.0

    @property
    def histogram(self) -> array:
        """Insertions per attempt count, indexed by attempts (the row's tail)."""
        return self._row[_HISTOGRAM:]

    @classmethod
    def total(cls, stats: Iterable["DirectoryStats"]) -> "DirectoryStats":
        """Counters added up across slices, row column by column."""
        stats = list(stats)
        total = cls()
        rows = [total._row] + [entry._row for entry in stats]
        total._row = array("q", map(sum, zip_longest(*rows, fillvalue=0)))
        total.occupancy_samples = sum(entry.occupancy_samples for entry in stats)
        total.occupancy_sum = sum(entry.occupancy_sum for entry in stats)
        return total

    def _key(self) -> tuple:
        return (
            tuple(self._row[:_HISTOGRAM]), self.attempt_histogram,
            self.occupancy_samples, self.occupancy_sum,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectoryStats):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in _COUNTERS)
        return f"DirectoryStats({fields}, attempt_histogram={self.attempt_histogram})"


def _counter(column: int) -> property:
    def get(stats) -> int:
        return stats._row[column]

    def set_(stats, value: int) -> None:
        stats._row[column] = value

    return property(get, set_)


for _column, _name in enumerate(_COUNTERS):
    setattr(DirectoryStats, _name, _counter(_column))


class Directory(abc.ABC):
    """Abstract coherence-directory organization (one slice).

    Concrete organizations store *entries* mapping block addresses to
    sharer sets.  Correctness contract (checked by the property tests):

    * after ``add_sharer(a, c)``, ``lookup(a)`` reports ``c`` as a sharer
      unless a later operation removed it;
    * the directory never reports a sharer that was never added or was
      removed (no stale sharers);
    * every entry the directory drops to make room is reported through
      :class:`UpdateResult.invalidations` so the private caches can be
      kept consistent (inclusion).
    """

    def __init__(self, num_caches: int) -> None:
        if num_caches <= 0:
            raise ValueError("num_caches must be positive")
        self._num_caches = num_caches
        self._stats = DirectoryStats()

    # -- required interface ---------------------------------------------------
    @abc.abstractmethod
    def lookup(self, address: int) -> LookupResult:
        """Find the sharers of ``address`` (does not modify the directory)."""

    @abc.abstractmethod
    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        """Record that ``cache_id`` now holds ``address``."""

    @abc.abstractmethod
    def remove_sharer(self, address: int, cache_id: int) -> None:
        """Record that ``cache_id`` evicted ``address``."""

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of live (non-empty) entries currently stored."""

    @abc.abstractmethod
    def tracked_addresses(self) -> List[int]:
        """Every address holding a live entry, once per entry.

        The coherence layer's consistency check reads it to find stale
        entries (entries for blocks that no tracked cache holds any more),
        addresses listed twice, and an :meth:`entry_count` that disagrees
        with the list.
        """

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum number of entries the organization can store."""

    # -- default implementations ----------------------------------------------
    def acquire_exclusive(self, address: int, cache_id: int) -> UpdateResult:
        """Handle a write: invalidate all other sharers, leave only the writer.

        Returns an :class:`UpdateResult` whose ``coherence_invalidations``
        names the caches that must drop the block (protocol invalidations)
        and whose ``invalidations`` carries any forced victimisations that
        allocating the writer's entry required.
        """
        existing = self.lookup(address)
        to_invalidate = frozenset(c for c in existing.sharers if c != cache_id)
        # Add the writer first so the entry is updated in place and never
        # transiently freed (a hardware directory rewrites the sharer vector
        # of the existing entry; it does not deallocate and re-allocate it).
        result = self.add_sharer(address, cache_id)
        if to_invalidate:
            self._stats.invalidate_all_operations += 1
            for other in to_invalidate:
                self.remove_sharer(address, other)
        return UpdateResult(
            inserted_new_entry=result.inserted_new_entry,
            attempts=result.attempts,
            invalidations=result.invalidations,
            coherence_invalidations=to_invalidate,
        )

    def contains(self, address: int) -> bool:
        return self.lookup(address).found

    def occupancy(self) -> float:
        """Fraction of directory capacity holding live entries."""
        if self.capacity == 0:
            return 0.0
        return self.entry_count() / self.capacity

    def sample_occupancy(self) -> float:
        """Record the current occupancy into the statistics and return it."""
        value = self.occupancy()
        self._stats.record_occupancy(value)
        return value

    @property
    def stash_occupancy(self) -> int:
        """Entries parked in an overflow stash (0 for stashless designs).

        Stash-backed organizations (:class:`~repro.core.stashed_cuckoo.
        StashedCuckooDirectory`) override this; the timeline's stash
        channel reads it uniformly across organizations.
        """
        return 0

    @property
    def stats(self) -> DirectoryStats:
        return self._stats

    @property
    def num_caches(self) -> int:
        return self._num_caches

    def reset_stats(self) -> None:
        """Clear statistics (used at the warm-up/measurement boundary)."""
        self._stats.clear()

    # -- helpers shared by concrete organizations ------------------------------
    def _record_forced_invalidation(self, invalidation: Invalidation) -> None:
        self._stats.forced_invalidations += 1
        self._stats.forced_invalidation_messages += invalidation.num_messages

    def _check_cache(self, cache_id: int) -> None:
        if not 0 <= cache_id < self._num_caches:
            raise IndexError(
                f"cache id {cache_id} out of range [0, {self._num_caches})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(caches={self._num_caches}, "
            f"capacity={self.capacity}, entries={self.entry_count()})"
        )
