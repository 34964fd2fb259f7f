"""Dict-of-objects reference cache model (the pre-array-native design).

This is the original ``SetAssociativeCache`` implementation — per-frame
``_RefBlock`` objects in nested ``frames[set][way]`` lists, a reverse map
of ``(set, way)`` tuples, and an explicit :class:`LruPolicy` (the policy
object the production cache replaced with its inline ``_stamps``) —
retained verbatim (minus the hot-path shortcuts) as the behavioural oracle
for the flat-array rewrite.  The property tests in
``test_array_cache_reference.py`` drive this model and the production
model with identical access streams and require identical hits,
evictions, LRU victims and state transitions.
"""

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import CoherenceState
from repro.config import CacheConfig


class LruPolicy:
    """Least-recently-used replacement over per-set recency stamps."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        # Per-set recency stamp per way; larger = more recent.
        self._stamps: List[List[int]] = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0

    def _check(self, set_index: int, way: int) -> None:
        if not 0 <= set_index < self._num_sets:
            raise IndexError(f"set {set_index} out of range")
        if not 0 <= way < self._num_ways:
            raise IndexError(f"way {way} out of range")

    def _touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def on_access(self, set_index: int, way: int) -> None:
        """A resident block in ``(set_index, way)`` was accessed (hit)."""
        self._check(set_index, way)
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        """A block was installed into ``(set_index, way)``."""
        self._check(set_index, way)
        self._touch(set_index, way)

    def on_invalidate(self, set_index: int, way: int) -> None:
        """A block was invalidated."""
        self._check(set_index, way)
        self._stamps[set_index][way] = 0

    def select_victim(self, set_index: int, occupied_ways: List[int]) -> int:
        """Pick the way to evict among ``occupied_ways``."""
        if not occupied_ways:
            raise ValueError("select_victim requires at least one occupied way")
        row = self._stamps[set_index]
        if len(occupied_ways) == self._num_ways:
            # Full set (the fill path): index() returns the first minimum,
            # matching the subset path's tie-break on way order.
            return row.index(min(row))
        return min(occupied_ways, key=row.__getitem__)


class _RefBlock:
    __slots__ = ("address", "state", "dirty")

    def __init__(self, address: int, state: CoherenceState, dirty: bool) -> None:
        self.address = address
        self.state = state
        self.dirty = dirty


class _RefStats:
    __slots__ = ("hits", "misses", "evictions", "dirty_evictions", "invalidations_received")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations_received = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class ReferenceCache:
    """Reference set-associative cache over block addresses (LRU only)."""

    def __init__(self, config: CacheConfig) -> None:
        self.num_sets = config.num_sets
        self.num_ways = config.associativity
        self._policy = LruPolicy(self.num_sets, self.num_ways)
        self._frames: List[List[Optional[_RefBlock]]] = [
            [None] * self.num_ways for _ in range(self.num_sets)
        ]
        self._location: Dict[int, Tuple[int, int]] = {}
        self.stats = _RefStats()

    # -- queries -----------------------------------------------------------
    def probe(self, address: int) -> Optional[_RefBlock]:
        loc = self._location.get(address)
        if loc is None:
            return None
        return self._frames[loc[0]][loc[1]]

    def state_of(self, address: int) -> CoherenceState:
        block = self.probe(address)
        return block.state if block is not None else CoherenceState.INVALID

    def resident(self) -> Dict[int, Tuple[CoherenceState, bool]]:
        """Full observable frame state: address -> (state, dirty)."""
        return {
            address: (
                self._frames[s][w].state,
                self._frames[s][w].dirty,
            )
            for address, (s, w) in self._location.items()
        }

    def __len__(self) -> int:
        return len(self._location)

    # -- mutations ---------------------------------------------------------
    def touch(self, address: int, write: bool = False) -> bool:
        loc = self._location.get(address)
        if loc is None:
            self.stats.misses += 1
            return False
        set_index, way = loc
        block = self._frames[set_index][way]
        if write:
            block.dirty = True
        self._policy.on_access(set_index, way)
        self.stats.hits += 1
        return True

    def fill(
        self,
        address: int,
        state: CoherenceState = CoherenceState.SHARED,
        dirty: bool = False,
    ) -> Tuple[bool, Optional[int], bool, Optional[CoherenceState]]:
        """Install; returns (hit, victim_address, victim_dirty, victim_state)."""
        existing = self._location.get(address)
        if existing is not None:
            set_index, way = existing
            block = self._frames[set_index][way]
            block.state = state
            block.dirty = block.dirty or dirty
            self._policy.on_access(set_index, way)
            return True, None, False, None

        set_index = address % self.num_sets
        ways = self._frames[set_index]
        free_way = None
        for way, block in enumerate(ways):
            if block is None:
                free_way = way
                break
        if free_way is None:
            victim_way = self._policy.select_victim(
                set_index, list(range(self.num_ways))
            )
            victim = ways[victim_way]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            del self._location[victim.address]
            result = (False, victim.address, victim.dirty, victim.state)
            ways[victim_way] = _RefBlock(address, state, dirty)
            self._location[address] = (set_index, victim_way)
            self._policy.on_fill(set_index, victim_way)
            return result

        ways[free_way] = _RefBlock(address, state, dirty)
        self._location[address] = (set_index, free_way)
        self._policy.on_fill(set_index, free_way)
        return False, None, False, None

    def invalidate(self, address: int) -> bool:
        loc = self._location.get(address)
        if loc is None:
            return False
        set_index, way = loc
        self._policy.on_invalidate(set_index, way)
        self._frames[set_index][way] = None
        del self._location[address]
        self.stats.invalidations_received += 1
        return True

    def set_state(self, address: int, state: CoherenceState) -> bool:
        """Returns False when the block is absent (caller asserts parity)."""
        block = self.probe(address)
        if block is None:
            return False
        if state is CoherenceState.INVALID:
            self.invalidate(address)
            return True
        block.state = state
        if state is CoherenceState.MODIFIED:
            block.dirty = True
        return True

    def flush(self) -> List[int]:
        addresses = list(self._location.keys())
        for address in addresses:
            set_index, way = self._location[address]
            self._frames[set_index][way] = None
        self._location.clear()
        return addresses
