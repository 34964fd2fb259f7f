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

The table maps non-negative integer keys (block addresses) to arbitrary
values (sharer sets in the directory; ``None`` in the raw
hash-characterisation experiments of Figure 7).

Storage layout
--------------
Each way is a flat parallel pair of arrays — ``keys[way][index]`` and
``values[way][index]`` — with ``_EMPTY`` (-1) as the vacant-slot sentinel
in the key array.  The displacement walk therefore swaps plain list
elements and allocates nothing; there is no per-slot wrapper object to
create, chase or collect.  The per-way hash functions are hoisted into a
local tuple of closures (:meth:`~repro.hashing.base.HashFamily.
way_functions`) so the walk does no way dispatch either.

Alongside the way arrays the table maintains a *locator* dict mapping each
stored key to its current ``(way, index)`` slot.  The way arrays stay the
ground truth (occupancy scans, iteration and the displacement walk read
them directly); the locator is a derived index kept in lockstep by every
placement, displacement and removal, and it turns the read-side methods —
``get``/``find``/``get_slot``/``__contains__`` and ``insert``'s presence
check — into a single dict probe instead of a d-way candidate scan.  This
mirrors what the hardware gets for free: the d probes happen in parallel
in silicon, while a software model pays them serially unless it shortcuts
the search.

LRU insert policy
-----------------
With ``lru=True`` the same table implements the paper's baselines, which
differ from the Cuckoo directory only in what an insertion does when every
candidate is full (Section 4.1): it evicts the least recently used
candidate at once instead of walking.  A per-slot stamp array and a
per-table clock record recency: :meth:`CuckooHashTable.touch` and every
insertion stamp, :meth:`~CuckooHashTable.get` and removals do not.  A
vacant candidate is taken in fixed way order (no round-robin start way),
and both outcomes count one attempt; the eviction returns the same
``EVICTED_VICTIM`` result as a cut-off walk.  A Skewed directory is such a
table over a skewing hash family; a Sparse directory is one whose ways all
index ``address % num_sets`` (:class:`~repro.hashing.modulo.
ModuloHashFamily`).  No walk ever re-reads a key's candidate row, so LRU
tables keep no indices cache.

The displacement walk
---------------------
:meth:`CuckooHashTable.walk` is the one entry point to the walk, for the
handlers (through :meth:`~CuckooHashTable.insert_absent`) and for the
vectorized drain alike.  It runs the compiled walk of
:mod:`repro.core.native` when that built and loaded, else
:func:`_walk_python`, which is the reference both are tested against.
Both run over the way lists, the locator and the indices cache above, so
the layout is the same either way; :data:`WALK` names the live one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import native
from repro.hashing.base import HashFamily
from repro.hashing.skewing import SkewingHashFamily

__all__ = ["InsertOutcome", "InsertResult", "CuckooHashTable", "WALK"]

#: Vacant-slot sentinel in the flat key arrays (keys are non-negative).
_EMPTY = -1

#: Bound on the per-table key -> candidate-indices cache.  Hash functions
#: are pure, so entries never go stale; the limit exists only to bound
#: memory on footprints far larger than any directory working set.  At the
#: bound the *oldest* entry is evicted (FIFO over insertion order — dicts
#: iterate in insertion order), so a steady-state working set keeps its hot
#: keys cached instead of being dumped wholesale and re-hashed from scratch.
_INDICES_CACHE_LIMIT = 1 << 15


def _walk_python(keys, values, locator, indices_cache, way_fns, key, value, way,
                 max_attempts):
    """The displacement walk: the reference for the compiled one.

    Writes ``key`` over its candidate in ``way``, then re-places each
    displaced entry in the next way round-robin, one attempt per
    placement, until an entry lands in a vacant slot or ``max_attempts``
    placements are made.  Each placement updates the placed key's locator
    slot; a displaced entry's stale slot is overwritten when the walk
    re-places it, or deleted when the cut-off walk discards it.

    Returns ``(attempts, way, evicted_key, evicted_value)``: ``way`` is
    where the walk stopped (the next insertion starts there), and the
    evicted pair is ``None, None`` unless the walk was cut off and threw
    its last displaced entry out of the table.
    """
    num_ways = len(way_fns)
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        # Displaced keys were inserted earlier, so their indices are
        # almost always still cached.
        cached = indices_cache.get(key)
        index = cached[way] if cached is not None else way_fns[way](key)
        way_keys = keys[way]
        victim_key = way_keys[index]
        way_values = values[way]
        victim_value = way_values[index]
        way_keys[index] = key
        way_values[index] = value
        locator[key] = (way, index)
        if victim_key == _EMPTY:
            return attempts, way, None, None
        key = victim_key
        value = victim_value
        way += 1
        if way == num_ways:
            way = 0
    del locator[key]
    return attempts, way, key, value


#: The displacement walk :meth:`CuckooHashTable.walk` runs.
_walk = native.load_walk() or _walk_python
#: Which walk that is: ``"compiled"`` or ``"python"`` (information only;
#: the loader decides, and nothing else selects a walk).
WALK = "python" if _walk is _walk_python else "compiled"


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
    evicted_value: Any = None

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
        self._way_fns = tuple(self._hashes.way_functions())
        self._indices_fn = self._hashes.indices_function()
        self._keys: List[List[int]] = [[_EMPTY] * num_sets for _ in range(num_ways)]
        self._values: List[List[Any]] = [[None] * num_sets for _ in range(num_ways)]
        # Derived reverse index: key -> (way, index) of its current slot.
        # Kept in lockstep with the way arrays by every placement,
        # displacement-walk step and removal (see the module docstring).
        self._locator: Dict[int, Tuple[int, int]] = {}
        self._size = 0
        self._start_way = 0
        # Round-robin probe orders: _way_orders[s] is the way sequence for
        # a walk starting at way s, so the vacant-candidate scan does no
        # modular arithmetic.
        self._way_orders = [
            tuple((start + offset) % num_ways for offset in range(num_ways))
            for start in range(num_ways)
        ]
        # Candidate-index cache: key -> per-way set indices.  Directory
        # working sets revisit the same keys constantly (every re-fetch,
        # eviction notification and displacement re-probes a key seen
        # before), and the hash functions are pure, so each distinct key is
        # hashed once and then served by a dict probe.  Bounded by
        # _INDICES_CACHE_LIMIT (see above).  LRU tables never walk, so they
        # have none.
        self._indices_cache: Optional[Dict[int, List[int]]] = None if lru else {}
        # LRU recency: per-slot stamps (None under the cuckoo policy) and
        # the clock the last stamp was taken from.
        self._stamps: Optional[List[List[int]]] = (
            [[0] * num_sets for _ in range(num_ways)] if lru else None
        )
        self._clock = 0
        # InsertResult is frozen, so the non-evicting outcomes (UPDATED and
        # INSERTED-with-N-attempts, N <= max_attempts) are preallocated and
        # shared; only the rare cut-off walk builds a result object.
        self._updated_result = InsertResult(outcome=InsertOutcome.UPDATED, attempts=0)
        self._inserted_results: List[Optional[InsertResult]] = [None] + [
            InsertResult(outcome=InsertOutcome.INSERTED, attempts=attempts)
            for attempts in range(1, max_attempts + 1)
        ]

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

    def occupancy(self) -> float:
        return self._size / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return self._size

    # -- lookup ---------------------------------------------------------------
    def candidate_slots(self, key: int) -> List[Tuple[int, int]]:
        """The ``(way, index)`` candidates of ``key``, one per way."""
        return [(way, fn(key)) for way, fn in enumerate(self._way_fns)]

    def _indices_of(self, key: int) -> List[int]:
        """The key's per-way set indices, cached per distinct key."""
        cache = self._indices_cache
        if cache is None:
            return self._indices_fn(key)
        indices = cache.get(key)
        if indices is None:
            if len(cache) >= _INDICES_CACHE_LIMIT:
                # FIFO eviction: drop the oldest cached key (dicts iterate
                # in insertion order), keeping the cache exactly at the
                # bound instead of dumping the whole working set.
                del cache[next(iter(cache))]
            indices = self._indices_fn(key)
            cache[key] = indices
        return indices

    def find(
        self, key: int, candidate_indices: Optional[Sequence[int]] = None
    ) -> Optional[Tuple[int, int]]:
        """Locate ``key``; returns its ``(way, index)`` or ``None``.

        ``candidate_indices`` is accepted for signature compatibility with
        batched callers but no longer consulted: the locator resolves the
        slot in one probe regardless.
        """
        return self._locator.get(key)

    def get(self, key: int, default: Any = None) -> Any:
        location = self._locator.get(key)
        if location is None:
            return default
        way, index = location
        return self._values[way][index]

    def touch(self, key: int) -> Any:
        """:meth:`get` for an update of the stored value.

        Under the LRU policy this also stamps the key's slot as the most
        recently used; under the cuckoo policy it is :meth:`get`.
        """
        location = self._locator.get(key)
        if location is None:
            return None
        way, index = location
        stamps = self._stamps
        if stamps is not None:
            self._clock += 1
            stamps[way][index] = self._clock
        return self._values[way][index]

    def __contains__(self, key: int) -> bool:
        return key in self._locator

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All stored ``(key, value)`` pairs (iteration order unspecified)."""
        for way_keys, way_values in zip(self._keys, self._values):
            for key, value in zip(way_keys, way_values):
                if key != _EMPTY:
                    yield key, value

    def keys(self) -> Iterator[int]:
        for key, _ in self.items():
            yield key

    # -- mutation ---------------------------------------------------------------
    def insert(
        self,
        key: int,
        value: Any = None,
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
        location = self._locator.get(key)
        if location is not None:
            way, index = location
            self._values[way][index] = value
            return self._updated_result
        return self.insert_absent(key, value, candidate_indices)

    def insert_absent(
        self,
        key: int,
        value: Any = None,
        candidate_indices: Optional[Sequence[int]] = None,
    ) -> InsertResult:
        """Insert a key the caller knows is absent (e.g. after a failed get).

        Identical to :meth:`insert` minus the presence scan; inserting a
        key that *is* present would duplicate it, so only call this after a
        lookup of the same key came back empty.
        """
        if key < 0:
            raise ValueError("keys must be non-negative")
        keys = self._keys
        values = self._values
        locator = self._locator
        if candidate_indices is None:
            candidate_indices = self._indices_of(key)

        # The lookup that preceded the insertion has already revealed whether a
        # vacant candidate slot exists; writing into it is the single attempt.
        # LRU tables never move their start way, so they scan in way order.
        num_ways = self._num_ways
        start_way = self._start_way
        stamps = self._stamps
        for way in self._way_orders[start_way]:
            index = candidate_indices[way]
            if keys[way][index] == _EMPTY:
                keys[way][index] = key
                values[way][index] = value
                locator[key] = (way, index)
                self._size += 1
                if stamps is None:
                    self._start_way = way
                else:
                    self._clock += 1
                    stamps[way][index] = self._clock
                return self._inserted_results[1]

        if stamps is not None:
            # LRU: evict the least recently stamped candidate at once, in
            # one attempt.  Every stamp is a fresh clock value, so the
            # minimum is unique.
            way = min(
                range(num_ways), key=lambda w: stamps[w][candidate_indices[w]]
            )
            index = candidate_indices[way]
            victim_key = keys[way][index]
            victim_value = values[way][index]
            keys[way][index] = key
            values[way][index] = value
            del locator[victim_key]
            locator[key] = (way, index)
            self._clock += 1
            stamps[way][index] = self._clock
            return InsertResult(
                outcome=InsertOutcome.EVICTED_VICTIM,
                attempts=1,
                evicted_key=victim_key,
                evicted_value=victim_value,
            )

        # Every candidate is full: the displacement walk.
        attempts, evicted_key, evicted_value = self.walk(key, value)
        if evicted_key is None:
            return self._inserted_results[attempts]
        return InsertResult(
            outcome=InsertOutcome.EVICTED_VICTIM,
            attempts=attempts,
            evicted_key=evicted_key,
            evicted_value=evicted_value,
        )

    def walk(self, key: int, value: Any) -> Tuple[int, Optional[int], Any]:
        """Insert an absent ``key`` whose candidates are all full, by walking.

        The displacement walk (module docstring) from the round-robin start
        way, which moves to where the walk stopped.  Returns ``(attempts,
        evicted_key, evicted_value)``: the evicted pair is ``None, None``
        when the walk ended in a vacant slot (the table grew by one), else
        the entry the cut-off walk threw out (one entry in, one out).
        Cuckoo policy only: an LRU table has no indices cache and never
        walks.
        """
        attempts, self._start_way, evicted_key, evicted_value = _walk(
            self._keys, self._values, self._locator, self._indices_cache,
            self._way_fns, key, value, self._start_way, self._max_attempts,
        )
        if evicted_key is None:
            self._size += 1
        return attempts, evicted_key, evicted_value

    def get_slot(self, key: int) -> Optional[Tuple[int, int, Any]]:
        """Locate ``key`` in one probe; returns ``(way, index, value)`` or ``None``.

        Combines :meth:`find` and :meth:`get` so callers that need both the
        stored value and the slot (to :meth:`clear_slot` it afterwards) pay
        a single candidate scan.
        """
        location = self._locator.get(key)
        if location is None:
            return None
        way, index = location
        return way, index, self._values[way][index]

    def clear_slot(self, way: int, index: int) -> None:
        """Vacate a slot previously located with :meth:`get_slot`/:meth:`find`."""
        way_keys = self._keys[way]
        del self._locator[way_keys[index]]
        way_keys[index] = _EMPTY
        self._values[way][index] = None
        self._size -= 1

    def remove(self, key: int) -> bool:
        """Remove ``key``; returns ``True`` if it was present."""
        location = self.find(key)
        if location is None:
            return False
        self.clear_slot(*location)
        return True

    def clear(self) -> None:
        for way in range(self._num_ways):
            self._keys[way] = [_EMPTY] * self._num_sets
            self._values[way] = [None] * self._num_sets
            if self._stamps is not None:
                self._stamps[way] = [0] * self._num_sets
        self._locator.clear()
        self._size = 0
        self._start_way = 0
        self._clock = 0

    # -- diagnostics ---------------------------------------------------------
    def way_occupancies(self) -> List[float]:
        """Per-way fill fraction (the round-robin start keeps these balanced)."""
        return [
            sum(1 for key in way_keys if key != _EMPTY) / self._num_sets
            for way_keys in self._keys
        ]

    def has_vacant_candidate(self, key: int) -> bool:
        return self._first_vacant_candidate(key) is not None

    # -- internals ------------------------------------------------------------
    def _first_vacant_candidate(self, key: int) -> Optional[Tuple[int, int]]:
        """Scan the candidate slots starting at the round-robin way."""
        num_ways = self._num_ways
        indices = self._indices_of(key)
        for offset in range(num_ways):
            way = self._start_way + offset
            if way >= num_ways:
                way -= num_ways
            if self._keys[way][indices[way]] == _EMPTY:
                return way, indices[way]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CuckooHashTable(ways={self._num_ways}, sets={self._num_sets}, "
            f"size={self._size}, occupancy={self.occupancy():.2f})"
        )
