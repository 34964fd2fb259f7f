"""d-ary cuckoo hash table with hardware-style displacement insertion.

This is the data structure at the heart of the Cuckoo directory
(Section 4).  It follows the d-ary generalisation of cuckoo hashing
[Fotakis et al. '03] with the specific hardware policies the paper
describes:

* **Lookup** probes all ``d`` ways in parallel (each way is a
  direct-mapped array indexed by its own hash function), exactly like a
  skewed-associative lookup.
* **Insertion** first uses the lookup to find a vacant candidate slot; if
  one exists the entry is written there and the insertion counts **one
  attempt**.  Otherwise the entry is written over one of its candidates,
  and the displaced victim is re-inserted into one of *its* alternate
  ways, iterating until some displaced entry lands in a vacant slot.
  Every placement counts as one attempt.
* **Bounded walk**: the number of attempts is capped (32 in the paper's
  evaluation).  If the cap is reached, the procedure stops and the most
  recently displaced entry is *evicted* from the table; the directory
  layer turns that into a forced invalidation.
* **Round-robin start way**: each insertion's walk starts at the way
  where the previous insertion stopped, keeping the ways uniformly
  filled (Section 4.2).

The table maps non-negative integer keys (block addresses) to 64-bit
values (sharer masks in the directory; 0 in the raw hash-characterisation
experiments of Figure 7).

Storage layout
--------------
The slots are flat typed buffers indexed by ``way * num_sets + index``:
``_keys`` (int64, ``_EMPTY`` for a vacant slot), ``_masks`` (uint64 values)
and, under LRU, ``_stamps`` (int64), beside an int64 ``_meta`` row of size,
start way and clock.  A key is found by scanning its candidate slots, as
the hardware probes its d ways in parallel.  The candidates come from the
hash family's :meth:`~repro.hashing.base.HashFamily.descriptor`, hashed by
the compiled kernels (``core/_kernels.c``): the drain and the walk hash in
C, and the Python API through ``indices`` on one-key buffers, so a family
with no descriptor is refused.  The compiled
kernels read and write these same buffers (:meth:`CuckooHashTable.
drain_state`), so they are only ever changed in place.

LRU insert policy
-----------------
With ``lru=True`` the same table implements the paper's baselines, which
differ from the Cuckoo directory only in what an insertion does when every
candidate is full (Section 4.1): it evicts the least recently used
candidate at once instead of walking.  The per-slot stamps and the table's
clock record recency: :meth:`CuckooHashTable.touch` and every insertion
stamp, :meth:`~CuckooHashTable.get` and removals do not.  A vacant
candidate is taken in fixed way order (no round-robin start way), and both
outcomes count one attempt; the eviction returns the same
``EVICTED_VICTIM`` result as a cut-off walk.  A Skewed directory is such a
table over a skewing hash family; a Sparse directory is one whose ways all
index ``address % num_sets`` (:class:`~repro.hashing.modulo.
ModuloHashFamily`).

The displacement walk
---------------------
:meth:`CuckooHashTable.walk` runs the compiled walk of :mod:`repro.core.
native` (``walk`` in ``_kernels.c``), the one definition of the walk; the
compiled drain runs the same C function.  It re-hashes each displaced key
in C from the descriptor.  The Python walk it is tested against lives in
``tests/coherence/reference_protocol.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core import native
from repro.hashing.base import HashFamily
from repro.hashing.skewing import SkewingHashFamily

__all__ = ["InsertOutcome", "InsertResult", "CuckooHashTable"]

#: Vacant-slot sentinel in the key buffer (keys are non-negative).
_EMPTY = -1

#: The columns of a table's meta row (``M_*`` in ``_kernels.c``).
_SIZE, _START_WAY, _CLOCK = range(3)


class InsertOutcome(str, Enum):
    """How an insertion terminated."""

    INSERTED = "inserted"          #: placed without evicting anything
    UPDATED = "updated"            #: key already present, value replaced
    EVICTED_VICTIM = "evicted"     #: placed, but the walk was cut off and a
    #: previously stored entry was thrown out of the table


@dataclass(frozen=True)
class InsertResult:
    """Outcome of one insertion."""

    outcome: InsertOutcome
    attempts: int
    evicted_key: Optional[int] = None
    evicted_value: Optional[int] = None

    @property
    def success(self) -> bool:
        """True when no stored entry was lost."""
        return self.outcome is not InsertOutcome.EVICTED_VICTIM

    @property
    def evicted(self) -> bool:
        return self.outcome is InsertOutcome.EVICTED_VICTIM


class CuckooHashTable:
    """A d-ary cuckoo hash table over non-negative integer keys.

    Parameters
    ----------
    num_ways:
        Number of direct-mapped ways (``d``); the paper uses 3 or 4.
    num_sets:
        Entries per way; total capacity is ``num_ways * num_sets``.
    hash_family:
        One hash function per way.  Defaults to the Seznec–Bodin skewing
        family, the paper's default; pass a
        :class:`~repro.hashing.strong.StrongHashFamily` to reproduce the
        "cryptographic hash" experiments.
    max_attempts:
        Insertion-walk bound (32 in the paper's evaluation).
    lru:
        Use the LRU insert policy of the Sparse and Skewed baselines
        instead of the displacement walk (module docstring); the
        organization fixes it, one way is then allowed and
        ``max_attempts`` is unused.
    """

    def __init__(
        self,
        num_ways: int,
        num_sets: int,
        hash_family: Optional[HashFamily] = None,
        max_attempts: int = 32,
        lru: bool = False,
    ) -> None:
        if num_ways < (1 if lru else 2):
            raise ValueError("a cuckoo hash needs at least 2 ways, an LRU table 1")
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self._num_ways = num_ways
        self._num_sets = num_sets
        self._max_attempts = max_attempts
        self._hashes = hash_family or SkewingHashFamily(num_ways, num_sets)
        if self._hashes.num_ways != num_ways or self._hashes.num_sets != num_sets:
            raise ValueError("hash family geometry does not match the table")
        descriptor = self._hashes.descriptor()
        if descriptor is None:
            raise ValueError(
                f"{type(self._hashes).__name__} has no descriptor for the compiled "
                "kernels, which hash every table's keys"
            )
        # One key's candidates, hashed by the compiled kernels into
        # preallocated buffers (``_indices``).
        self._descriptor = descriptor
        self._key = array("q", [0])
        self._candidates = array("q", bytes(8 * num_ways))
        slots = num_ways * num_sets
        self._keys = array("q", [_EMPTY]) * slots
        self._masks = array("Q", bytes(8 * slots))
        self._stamps = array("q", bytes(8 * slots)) if lru else None
        self._meta = array("q", bytes(8 * 3))
        self._state = (
            self._keys, self._masks, self._stamps, self._meta, descriptor, max_attempts,
        )

    # -- geometry -----------------------------------------------------------
    @property
    def num_ways(self) -> int:
        return self._num_ways

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def capacity(self) -> int:
        return self._num_ways * self._num_sets

    @property
    def max_attempts(self) -> int:
        return self._max_attempts

    @property
    def hash_family(self) -> HashFamily:
        return self._hashes

    def drain_state(self) -> tuple:
        """The buffers, descriptor and walk bound the compiled kernels read."""
        return self._state

    def occupancy(self) -> float:
        return len(self) / self.capacity

    def __len__(self) -> int:
        return self._meta[_SIZE]

    # -- lookup ---------------------------------------------------------------
    def candidate_slots(self, key: int) -> List[Tuple[int, int]]:
        """The ``(way, index)`` candidates of ``key``, one per way."""
        return list(enumerate(self._indices(key)))

    def _slot(self, key: int, candidate_indices: Optional[Sequence[int]] = None) -> int:
        """The flat slot holding ``key``, found by scanning its candidates, or -1."""
        if key < 0:
            return -1
        keys, sets = self._keys, self._num_sets
        indices = self._indices(key) if candidate_indices is None else candidate_indices
        for way, index in enumerate(indices):
            if keys[way * sets + index] == key:
                return way * sets + index
        return -1

    def find(
        self, key: int, candidate_indices: Optional[Sequence[int]] = None
    ) -> Optional[Tuple[int, int]]:
        """Locate ``key``; returns its ``(way, index)`` or ``None``.

        ``candidate_indices`` optionally carries the key's precomputed
        per-way indices (the Figure 7 sweep hashes its keys in one batch).
        """
        slot = self._slot(key, candidate_indices)
        return None if slot < 0 else divmod(slot, self._num_sets)

    def get(self, key: int, default: Optional[int] = None) -> Optional[int]:
        slot = self._slot(key)
        return default if slot < 0 else self._masks[slot]

    def touch(self, key: int) -> Optional[int]:
        """:meth:`get` for an update of the stored value.

        Under the LRU policy this also stamps the key's slot as the most
        recently used; under the cuckoo policy it is :meth:`get`.
        """
        slot = self.touch_slot(key)
        return None if slot is None else slot[2]

    def touch_slot(self, key: int) -> Optional[Tuple[int, int, int]]:
        """:meth:`get_slot` with :meth:`touch`'s LRU stamp."""
        slot = self._slot(key)
        if slot < 0:
            return None
        if self._stamps is not None:
            self._stamp(slot)
        return (*divmod(slot, self._num_sets), self._masks[slot])

    def _stamp(self, slot: int) -> None:
        meta = self._meta
        meta[_CLOCK] += 1
        self._stamps[slot] = meta[_CLOCK]

    def __contains__(self, key: int) -> bool:
        return self._slot(key) >= 0

    def items(self) -> Iterator[Tuple[int, int]]:
        """All stored ``(key, value)`` pairs, in slot order."""
        for key, value in zip(self._keys, self._masks):
            if key != _EMPTY:
                yield key, value

    def keys(self) -> Iterator[int]:
        for key, _ in self.items():
            yield key

    # -- mutation ---------------------------------------------------------------
    def insert(
        self,
        key: int,
        value: int = 0,
        candidate_indices: Optional[Sequence[int]] = None,
    ) -> InsertResult:
        """Insert ``key``; returns how the walk terminated and how many attempts it took.

        Inserting a key that is already present replaces its value and
        counts zero attempts (the directory's add-sharer path never reaches
        this method for existing entries, but the table stays well defined
        as a standalone container).  ``candidate_indices`` optionally
        carries the key's precomputed per-way indices; the displacement
        walk still hashes the *displaced* keys itself.
        """
        if key < 0:
            raise ValueError("keys must be non-negative")
        if candidate_indices is None:
            candidate_indices = self._indices(key)
        slot = self._slot(key, candidate_indices)
        if slot >= 0:
            self._masks[slot] = value
            return InsertResult(outcome=InsertOutcome.UPDATED, attempts=0)
        return self.insert_absent(key, value, candidate_indices)

    def insert_absent(
        self,
        key: int,
        value: int = 0,
        candidate_indices: Optional[Sequence[int]] = None,
    ) -> InsertResult:
        """Insert a key the caller knows is absent (e.g. after a failed get).

        Identical to :meth:`insert` minus the presence scan; inserting a
        key that *is* present would duplicate it, so only call this after a
        lookup of the same key came back empty.
        """
        if key < 0:
            raise ValueError("keys must be non-negative")
        if candidate_indices is None:
            candidate_indices = self._indices(key)
        # The lookup that preceded the insertion has already revealed whether a
        # vacant candidate slot exists; writing into it is the single attempt.
        # LRU tables never move their start way, so they scan in way order.
        vacant = self._first_vacant(candidate_indices)
        if vacant is not None:
            way, slot = vacant
            self._keys[slot] = key
            self._masks[slot] = value
            self._meta[_SIZE] += 1
            if self._stamps is None:
                self._meta[_START_WAY] = way
            else:
                self._stamp(slot)
            return InsertResult(outcome=InsertOutcome.INSERTED, attempts=1)

        if self._stamps is not None:
            # LRU: evict the least recently stamped candidate at once, in
            # one attempt.  Every stamp is a fresh clock value, so the
            # minimum is unique.
            sets, stamps = self._num_sets, self._stamps
            slot = min(
                (way * sets + index for way, index in enumerate(candidate_indices)),
                key=stamps.__getitem__,
            )
            evicted_key, evicted_value = self._keys[slot], self._masks[slot]
            self._keys[slot] = key
            self._masks[slot] = value
            self._stamp(slot)
            attempts = 1
        else:
            # Every candidate is full: the displacement walk.
            attempts, evicted_key, evicted_value = self.walk(key, value)
        if evicted_key is None:
            return InsertResult(outcome=InsertOutcome.INSERTED, attempts=attempts)
        return InsertResult(
            outcome=InsertOutcome.EVICTED_VICTIM,
            attempts=attempts,
            evicted_key=evicted_key,
            evicted_value=evicted_value,
        )

    def walk(self, key: int, value: int) -> Tuple[int, Optional[int], Optional[int]]:
        """Insert an absent ``key`` whose candidates are all full, by walking.

        The displacement walk (module docstring) from the round-robin start
        way, which moves to where the walk stopped.  Returns ``(attempts,
        evicted_key, evicted_value)``: the evicted pair is ``None, None``
        when the walk ended in a vacant slot (the table grew by one), else
        the entry the cut-off walk threw out (one entry in, one out).
        Cuckoo policy only.
        """
        return native.KERNELS.walk(self._state, key, value)

    def get_slot(self, key: int) -> Optional[Tuple[int, int, int]]:
        """Locate ``key``; returns ``(way, index, value)`` or ``None``."""
        slot = self._slot(key)
        if slot < 0:
            return None
        return (*divmod(slot, self._num_sets), self._masks[slot])

    def set_value(self, way: int, index: int, value: int) -> None:
        """Rewrite the value of an occupied slot located with :meth:`get_slot`."""
        self._masks[way * self._num_sets + index] = value

    def clear_slot(self, way: int, index: int) -> None:
        """Vacate a slot previously located with :meth:`get_slot`/:meth:`find`."""
        slot = way * self._num_sets + index
        self._keys[slot] = _EMPTY
        self._masks[slot] = 0
        self._meta[_SIZE] -= 1

    def remove(self, key: int) -> bool:
        """Remove ``key``; returns ``True`` if it was present."""
        location = self.find(key)
        if location is None:
            return False
        self.clear_slot(*location)
        return True

    def clear(self) -> None:
        slots = self.capacity
        self._keys[:] = array("q", [_EMPTY]) * slots
        self._masks[:] = array("Q", bytes(8 * slots))
        if self._stamps is not None:
            self._stamps[:] = array("q", bytes(8 * slots))
        self._meta[:] = array("q", bytes(8 * len(self._meta)))

    # -- diagnostics ---------------------------------------------------------
    def way_occupancies(self) -> List[float]:
        """Per-way fill fraction (the round-robin start keeps these balanced)."""
        sets = self._num_sets
        return [
            (sets - self._keys[way * sets : (way + 1) * sets].count(_EMPTY)) / sets
            for way in range(self._num_ways)
        ]

    def has_vacant_candidate(self, key: int) -> bool:
        return self._first_vacant(self._indices(key)) is not None

    # -- internals ------------------------------------------------------------
    def _indices(self, key: int) -> array:
        """``key``'s candidate index in every way, hashed by the compiled
        ``indices`` kernel into a buffer the next call overwrites."""
        self._key[0] = key
        native.KERNELS.indices(self._descriptor, self._key, self._candidates)
        return self._candidates

    def _first_vacant(self, indices: Sequence[int]) -> Optional[Tuple[int, int]]:
        """The first vacant candidate ``(way, slot)`` from the start way."""
        ways, sets, keys = self._num_ways, self._num_sets, self._keys
        start = self._meta[_START_WAY]
        for offset in range(ways):
            way = (start + offset) % ways
            slot = way * sets + indices[way]
            if keys[slot] == _EMPTY:
                return way, slot
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CuckooHashTable(ways={self._num_ways}, sets={self._num_sets}, "
            f"size={len(self)}, occupancy={self.occupancy():.2f})"
        )
