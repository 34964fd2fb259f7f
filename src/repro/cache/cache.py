"""Set-associative cache model with write-back semantics and MESI states.

The model is *behavioural*: it tracks which block addresses are resident,
their coherence state, and which blocks get evicted, but not data values
or timing.  That is exactly the information the coherence directory needs.

Addresses handled here are **block addresses** (byte address divided by
the block size); the coherence layer performs the division once so every
structure in the library agrees on the address granularity.

Storage layout (array-native)
-----------------------------
Frame state lives in flat parallel arrays indexed by ``set * ways + way``:
``_tags`` (block address or ``_EMPTY``), ``_states`` (small-int MESI
codes), ``_dirty`` flags and ``_stamps`` (LRU recency: a per-cache clock
stamps a frame on every touch and fill, and a full set evicts its
minimum-stamp frame; LRU is the paper's cache policy).  A reverse map
``_location`` (block address -> flat frame index) finds hits in one dict
probe, and a per-set occupancy count lets the fill path skip the
free-frame scan once a set is full (the steady state of every simulation).
There is no per-frame wrapper object: the hot path reads and writes plain
list slots.  The compiled drain (``repro/core/_kernels.c``) reads and writes
these lists, ``_location`` and ``_clock`` directly; keep the layout and the
drain in sync.

The MESI states are encoded as integers on the hot path (``STATE_*``
module constants); the :class:`CoherenceState` enum remains the public
API boundary — :meth:`SetAssociativeCache.probe`, :meth:`state_of`,
:meth:`fill` and :meth:`set_state` speak enum, while the ``*_code``
methods used by the coherence controller speak integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional

from repro.config import CacheConfig

__all__ = [
    "CoherenceState",
    "CacheBlock",
    "AccessResult",
    "CacheStats",
    "SetAssociativeCache",
    "STATE_INVALID",
    "STATE_SHARED",
    "STATE_EXCLUSIVE",
    "STATE_MODIFIED",
    "STATE_TO_CODE",
    "CODE_TO_STATE",
]


class CoherenceState(str, Enum):
    """MESI block states as seen by a private cache."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not CoherenceState.INVALID

    @property
    def can_write(self) -> bool:
        return self in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE)


#: Integer MESI codes stored in the flat state array.  The ordering is
#: deliberate: ``code >= STATE_EXCLUSIVE`` means "owns the block (E or M)",
#: which the coherence protocol's downgrade path relies on.
STATE_INVALID = 0
STATE_SHARED = 1
STATE_EXCLUSIVE = 2
STATE_MODIFIED = 3

STATE_TO_CODE: Dict[CoherenceState, int] = {
    CoherenceState.INVALID: STATE_INVALID,
    CoherenceState.SHARED: STATE_SHARED,
    CoherenceState.EXCLUSIVE: STATE_EXCLUSIVE,
    CoherenceState.MODIFIED: STATE_MODIFIED,
}

#: Inverse of :data:`STATE_TO_CODE`, indexed by state code.
CODE_TO_STATE = (
    CoherenceState.INVALID,
    CoherenceState.SHARED,
    CoherenceState.EXCLUSIVE,
    CoherenceState.MODIFIED,
)

#: Vacant-frame sentinel in the flat tag array (block addresses are >= 0).
_EMPTY = -1


class CacheBlock:
    """A snapshot of one resident block frame.

    The flat-array cache has no per-frame objects; :meth:`SetAssociativeCache.
    probe` builds one of these on demand as a read-only view.  Mutating a
    snapshot does not write back into the cache — resident blocks change
    state through :meth:`SetAssociativeCache.set_state`, :meth:`touch` and
    :meth:`fill`.
    """

    __slots__ = ("address", "state", "dirty")

    def __init__(
        self,
        address: int,
        state: CoherenceState = CoherenceState.SHARED,
        dirty: bool = False,
    ) -> None:
        self.address = address
        self.state = state
        self.dirty = dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheBlock({self.address:#x}, {self.state.value}, dirty={self.dirty})"


class AccessResult:
    """Outcome of installing or touching a block."""

    __slots__ = ("hit", "victim_address", "victim_dirty", "victim_state")

    def __init__(
        self,
        hit: bool,
        victim_address: Optional[int] = None,
        victim_dirty: bool = False,
        victim_state: Optional[CoherenceState] = None,
    ) -> None:
        self.hit = hit
        self.victim_address = victim_address
        self.victim_dirty = victim_dirty
        self.victim_state = victim_state

    @property
    def evicted(self) -> bool:
        return self.victim_address is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccessResult(hit={self.hit}, victim={self.victim_address}, "
            f"dirty={self.victim_dirty})"
        )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache.

    ``accesses`` is derived (every access is exactly one hit or one miss),
    so the per-access paths maintain one counter fewer.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative, write-back cache over block addresses.

    The cache does not fetch data on its own: the coherence controller
    decides when to install a block (``fill``) and in which state, and the
    cache reports which victim, if any, had to leave.  ``probe`` answers
    hit/miss questions without side effects, ``touch`` updates recency on
    a hit, and ``invalidate`` removes a block on a remote write.

    The coherence controller's hot path uses the integer-code twins
    (:meth:`touch_code`, :meth:`fill_code`, :meth:`state_code_of`,
    :meth:`set_state_code`) which skip enum conversion and result-object
    construction entirely.
    """

    __slots__ = (
        "_config",
        "_name",
        "_num_sets",
        "_num_ways",
        "_tags",
        "_states",
        "_dirty",
        "_stamps",
        "_clock",
        "_set_counts",
        "_location",
        "_stats",
        "victim_dirty",
        "_victim_state_code",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self._config = config
        self._name = name
        self._num_sets = config.num_sets
        self._num_ways = config.associativity
        num_frames = self._num_sets * self._num_ways
        # Flat parallel frame arrays, indexed by set * ways + way.
        self._tags: List[int] = [_EMPTY] * num_frames
        self._states: List[int] = [STATE_INVALID] * num_frames
        self._dirty: List[bool] = [False] * num_frames
        # Reverse map: block address -> flat frame index.
        self._location: Dict[int, int] = {}
        # Occupied frames per set: lets the fill path skip the free-frame
        # scan once a set is full (the steady state of a warmed simulation).
        self._set_counts: List[int] = [0] * self._num_sets
        self._stats = CacheStats()
        # LRU recency per frame: bump the clock, stamp the frame.
        self._stamps: List[int] = [0] * num_frames
        self._clock = 0
        # Victim side-channel for fill_code (valid after it returns >= 0).
        self.victim_dirty = False
        self._victim_state_code = STATE_INVALID

    # -- geometry ---------------------------------------------------------
    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def num_ways(self) -> int:
        return self._num_ways

    @property
    def num_frames(self) -> int:
        return self._num_sets * self._num_ways

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def reset_stats(self) -> None:
        """Clear hit/miss/eviction counters (end of warm-up)."""
        self._stats = CacheStats()

    def set_index(self, address: int) -> int:
        """Set index of a block address (modulo indexing)."""
        return address % self._num_sets

    # -- queries ------------------------------------------------------------
    def probe(self, address: int) -> Optional[CacheBlock]:
        """Return a :class:`CacheBlock` snapshot for ``address`` or ``None``.

        No side effects; the snapshot is a copy of the frame's fields, not
        live storage (see :class:`CacheBlock`).
        """
        index = self._location.get(address)
        if index is None:
            return None
        return CacheBlock(
            address=address,
            state=CODE_TO_STATE[self._states[index]],
            dirty=self._dirty[index],
        )

    def contains(self, address: int) -> bool:
        return address in self._location

    def state_of(self, address: int) -> CoherenceState:
        index = self._location.get(address)
        if index is None:
            return CoherenceState.INVALID
        return CODE_TO_STATE[self._states[index]]

    def state_code_of(self, address: int) -> int:
        """Integer MESI code of ``address`` (``STATE_INVALID`` if absent)."""
        index = self._location.get(address)
        if index is None:
            return STATE_INVALID
        return self._states[index]

    def resident_addresses(self) -> Iterator[int]:
        """All block addresses currently resident (iteration order unspecified)."""
        return iter(self._location.keys())

    def occupancy(self) -> float:
        return len(self._location) / self.num_frames if self.num_frames else 0.0

    def __len__(self) -> int:
        return len(self._location)

    # -- mutations ------------------------------------------------------------
    def touch(self, address: int, write: bool = False) -> bool:
        """Record an access to a resident block; returns False on miss.

        On a write hit the block is marked dirty; state transitions are the
        coherence controller's job (via :meth:`set_state`).
        """
        return self.touch_code(address, write) >= 0

    def touch_code(self, address: int, write: bool = False) -> int:
        """Like :meth:`touch` but returns the block's state code, -1 on miss."""
        index = self._location.get(address)
        if index is None:
            self._stats.misses += 1
            return -1
        self._stats.hits += 1
        if write:
            self._dirty[index] = True
        self._clock += 1
        self._stamps[index] = self._clock
        return self._states[index]

    def fill(
        self,
        address: int,
        state: CoherenceState = CoherenceState.SHARED,
        dirty: bool = False,
    ) -> AccessResult:
        """Install ``address``; evicts a victim if the set is full.

        Filling an already-resident block refreshes its recency and state
        without an eviction (hit-path fill), which keeps the model robust
        against redundant controller fills.
        """
        hit = address in self._location
        victim = self.fill_code(address, STATE_TO_CODE[state], dirty)
        if victim < 0:
            return AccessResult(hit=hit)
        return AccessResult(
            hit=False,
            victim_address=victim,
            victim_dirty=self.victim_dirty,
            victim_state=CODE_TO_STATE[self._victim_state_code],
        )

    def fill_code(
        self, address: int, state_code: int = STATE_SHARED, dirty: bool = False
    ) -> int:
        """Like :meth:`fill` but takes a state code and returns the victim.

        Returns the evicted block address, or -1 when nothing was evicted
        (vacant frame, or ``address`` was already resident).  When a victim
        is returned, ``self.victim_dirty`` holds its dirtiness.
        """
        location = self._location
        index = location.get(address)
        if index is not None:
            # Redundant controller fill: refresh state and recency in place.
            self._states[index] = state_code
            if dirty:
                self._dirty[index] = True
            self._clock += 1
            self._stamps[index] = self._clock
            return -1
        return self.fill_miss_code(address, state_code, dirty)

    def fill_miss_code(
        self, address: int, state_code: int = STATE_SHARED, dirty: bool = False
    ) -> int:
        """:meth:`fill_code` for a block the caller knows is absent.

        The coherence controller only fills after a probe missed (and
        nothing on the miss path can install the block), so the hot path
        skips the residency re-check.
        """
        location = self._location
        num_ways = self._num_ways
        set_index = address % self._num_sets
        base = set_index * num_ways
        tags = self._tags

        if self._set_counts[set_index] < num_ways:
            # A vacant frame exists: take the first one in way order.
            index = tags.index(_EMPTY, base, base + num_ways)
            tags[index] = address
            self._states[index] = state_code
            self._dirty[index] = dirty
            location[address] = index
            self._set_counts[set_index] += 1
            self._clock += 1
            self._stamps[index] = self._clock
            return -1

        # Full set: evict the LRU victim and recycle its frame.
        stamps = self._stamps
        if num_ways == 2:
            # Two-way sets (the tracked L1s): a single comparison, with
            # the same way-order tie-break as index(min(row)).
            index = base if stamps[base] <= stamps[base + 1] else base + 1
        else:
            row = stamps[base : base + num_ways]
            index = base + row.index(min(row))
        victim_address = tags[index]
        victim_dirty = self._dirty[index]
        stats = self._stats
        stats.evictions += 1
        if victim_dirty:
            stats.dirty_evictions += 1
        self.victim_dirty = victim_dirty
        self._victim_state_code = self._states[index]
        del location[victim_address]
        tags[index] = address
        self._states[index] = state_code
        self._dirty[index] = dirty
        location[address] = index
        self._clock += 1
        stamps[index] = self._clock
        return victim_address

    def invalidate(self, address: int) -> bool:
        """Remove ``address`` (remote write or forced directory eviction)."""
        index = self._location.pop(address, None)
        if index is None:
            return False
        self._stamps[index] = 0
        self._tags[index] = _EMPTY
        self._states[index] = STATE_INVALID
        self._dirty[index] = False
        self._set_counts[index // self._num_ways] -= 1
        self._stats.invalidations_received += 1
        return True

    def set_state(self, address: int, state: CoherenceState) -> None:
        """Set the MESI state of a resident block (controller-driven)."""
        if state is CoherenceState.INVALID:
            if not self.invalidate(address):
                raise KeyError(f"block {address:#x} not resident in {self._name}")
            return
        self.set_state_code(address, STATE_TO_CODE[state])

    def set_state_code(self, address: int, state_code: int) -> None:
        """Integer-code twin of :meth:`set_state` for valid states."""
        index = self._location.get(address)
        if index is None:
            raise KeyError(f"block {address:#x} not resident in {self._name}")
        self._states[index] = state_code
        if state_code == STATE_MODIFIED:
            self._dirty[index] = True

    def flush(self) -> List[int]:
        """Empty the cache, returning the addresses that were resident."""
        addresses = list(self._location.keys())
        for index in self._location.values():
            self._tags[index] = _EMPTY
            self._states[index] = STATE_INVALID
            self._dirty[index] = False
        self._location.clear()
        # In place: the compiled drain holds this list (TiledCMP._prepare_drain).
        self._set_counts[:] = [0] * self._num_sets
        return addresses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self._name!r}, sets={self._num_sets}, "
            f"ways={self._num_ways}, resident={len(self._location)})"
        )
