"""Set-associative cache model with write-back semantics and MESI states.

The model is *behavioural*: it tracks which block addresses are resident,
their coherence state, and which blocks get evicted, but not data values
or timing.  That is exactly the information the coherence directory needs.

Addresses handled here are **block addresses** (byte address divided by
the block size); the coherence layer performs the division once so every
structure in the library agrees on the address granularity.

Storage layout (typed buffers)
------------------------------
Frame state lives in flat typed buffers indexed by ``set * ways + way``:
``_tags`` (int64 block address, or ``_EMPTY``), ``_stamps`` (int64 LRU
recency: a per-cache clock stamps a frame on every touch and fill, and a
full set evicts its minimum-stamp frame; LRU is the paper's cache policy),
``_states`` (uint8 MESI codes) and ``_dirty`` (uint8 flags).  A block is
found by scanning its set's ways, as the hardware's tag compare does.  One
int64 ``_counts`` row holds the statistics :class:`CacheStats` reads and
the clock.  The compiled drain (``repro/core/_kernels.c``) reads and writes
these same buffers, taken once per system (:meth:`SetAssociativeCache.
drain_state`), so they are only ever changed in place.

The MESI states are encoded as integers on the hot path (``STATE_*``
module constants); the :class:`CoherenceState` enum remains the public
API boundary — :meth:`SetAssociativeCache.probe`, :meth:`state_of`,
:meth:`fill` and :meth:`set_state` speak enum, while the ``*_code``
methods used by the coherence controller speak integers.
"""

from __future__ import annotations

from array import array
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


#: The columns of a cache's counts row: the :class:`CacheStats` counters,
#: then the LRU clock (``K_*`` in ``_kernels.c``).
_COUNTERS = ("hits", "misses", "evictions", "dirty_evictions", "invalidations_received")
_CLOCK = len(_COUNTERS)


class CacheStats:
    """Hit/miss/eviction counters for one cache: a view of its counts row.

    ``accesses`` is derived (every access is exactly one hit or one miss),
    so the per-access paths maintain one counter fewer.
    """

    __slots__ = ("_row",)

    def __init__(self) -> None:
        self._row = array("q", bytes(8 * (_CLOCK + 1)))

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self._row[:_CLOCK] == other._row[:_CLOCK]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats({', '.join(f'{n}={getattr(self, n)}' for n in _COUNTERS)})"


def _counter(column: int) -> property:
    def get(stats) -> int:
        return stats._row[column]

    def set_(stats, value: int) -> None:
        stats._row[column] = value

    return property(get, set_)


for _column, _name in enumerate(_COUNTERS):
    setattr(CacheStats, _name, _counter(_column))


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
        "_stamps",
        "_states",
        "_dirty",
        "_counts",
        "_stats",
        "victim_dirty",
        "_victim_state_code",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self._config = config
        self._name = name
        self._num_sets = config.num_sets
        self._num_ways = config.associativity
        frames = self._num_sets * self._num_ways
        self._tags = array("q", [_EMPTY]) * frames
        self._stamps = array("q", bytes(8 * frames))
        self._states = array("B", bytes(frames))
        self._dirty = array("B", bytes(frames))
        self._stats = CacheStats()
        self._counts = self._stats._row
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
        """Clear hit/miss/eviction counters (end of warm-up), in place."""
        self._counts[:_CLOCK] = array("q", bytes(8 * _CLOCK))

    def drain_state(self) -> tuple:
        """The buffers the compiled drain runs this cache over."""
        return (
            self._tags, self._stamps, self._states, self._dirty, self._counts,
            self._num_ways,
        )

    def set_index(self, address: int) -> int:
        """Set index of a block address (modulo indexing)."""
        return address % self._num_sets

    # -- queries ------------------------------------------------------------
    def _frame(self, address: int) -> int:
        """The frame holding ``address``, found by scanning its set, or -1."""
        if address < 0:
            return -1
        base = address % self._num_sets * self._num_ways
        ways = self._tags[base : base + self._num_ways]
        return base + ways.index(address) if address in ways else -1

    def probe(self, address: int) -> Optional[CacheBlock]:
        """Return a :class:`CacheBlock` snapshot for ``address`` or ``None``.

        No side effects; the snapshot is a copy of the frame's fields, not
        live storage (see :class:`CacheBlock`).
        """
        index = self._frame(address)
        if index < 0:
            return None
        return CacheBlock(
            address=address,
            state=CODE_TO_STATE[self._states[index]],
            dirty=bool(self._dirty[index]),
        )

    def contains(self, address: int) -> bool:
        return self._frame(address) >= 0

    def state_of(self, address: int) -> CoherenceState:
        return CODE_TO_STATE[self.state_code_of(address)]

    def state_code_of(self, address: int) -> int:
        """Integer MESI code of ``address`` (``STATE_INVALID`` if absent)."""
        index = self._frame(address)
        return STATE_INVALID if index < 0 else self._states[index]

    def resident_addresses(self) -> Iterator[int]:
        """All block addresses currently resident (iteration order unspecified)."""
        return (tag for tag in self._tags if tag != _EMPTY)

    def occupancy(self) -> float:
        return len(self) / self.num_frames if self.num_frames else 0.0

    def __len__(self) -> int:
        return len(self._tags) - self._tags.count(_EMPTY)

    # -- mutations ------------------------------------------------------------
    def touch(self, address: int, write: bool = False) -> bool:
        """Record an access to a resident block; returns False on miss.

        On a write hit the block is marked dirty; state transitions are the
        coherence controller's job (via :meth:`set_state`).
        """
        return self.touch_code(address, write) >= 0

    def touch_code(self, address: int, write: bool = False) -> int:
        """Like :meth:`touch` but returns the block's state code, -1 on miss."""
        index = self._frame(address)
        stats = self._stats
        if index < 0:
            stats.misses += 1
            return -1
        stats.hits += 1
        if write:
            self._dirty[index] = 1
        self._stamp(index)
        return self._states[index]

    def _stamp(self, index: int) -> None:
        counts = self._counts
        counts[_CLOCK] += 1
        self._stamps[index] = counts[_CLOCK]

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
        hit = self.contains(address)
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
        index = self._frame(address)
        if index >= 0:
            # Redundant controller fill: refresh state and recency in place.
            self._states[index] = state_code
            if dirty:
                self._dirty[index] = 1
            self._stamp(index)
            return -1
        return self.fill_miss_code(address, state_code, dirty)

    def fill_miss_code(
        self, address: int, state_code: int = STATE_SHARED, dirty: bool = False
    ) -> int:
        """:meth:`fill_code` for a block the caller knows is absent.

        The set's first vacant frame takes the block, else its least
        recently stamped frame, whose block is evicted and returned.
        """
        if address < 0:
            raise ValueError("block addresses must be non-negative")
        base = address % self._num_sets * self._num_ways
        tags = self._tags
        ways = tags[base : base + self._num_ways]
        victim = _EMPTY
        if _EMPTY in ways:
            index = base + ways.index(_EMPTY)
        else:
            stamps = self._stamps[base : base + self._num_ways]
            index = base + stamps.index(min(stamps))
            victim = tags[index]
            stats = self._stats
            stats.evictions += 1
            self.victim_dirty = bool(self._dirty[index])
            stats.dirty_evictions += self.victim_dirty
            self._victim_state_code = self._states[index]
        tags[index] = address
        self._states[index] = state_code
        self._dirty[index] = 1 if dirty else 0
        self._stamp(index)
        return victim

    def invalidate(self, address: int) -> bool:
        """Remove ``address`` (remote write or forced directory eviction)."""
        index = self._frame(address)
        if index < 0:
            return False
        self._tags[index] = _EMPTY
        self._stamps[index] = 0
        self._states[index] = STATE_INVALID
        self._dirty[index] = 0
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
        index = self._frame(address)
        if index < 0:
            raise KeyError(f"block {address:#x} not resident in {self._name}")
        self._states[index] = state_code
        if state_code == STATE_MODIFIED:
            self._dirty[index] = 1

    def flush(self) -> List[int]:
        """Empty the cache, returning the addresses that were resident."""
        addresses = list(self.resident_addresses())
        frames = len(self._tags)
        self._tags[:] = array("q", [_EMPTY]) * frames
        self._states[:] = array("B", bytes(frames))
        self._dirty[:] = array("B", bytes(frames))
        return addresses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self._name!r}, sets={self._num_sets}, "
            f"ways={self._num_ways}, resident={len(self)})"
        )
