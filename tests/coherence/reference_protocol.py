"""The reference protocol: the handler loop and the Python displacement walk.

The simulator defines the MESI protocol once, as ``drain`` in
``repro/core/_kernels.c``, and the cuckoo displacement walk once, as ``walk``
there.  This module is the oracle the differential suites
(``test_access_paths.py`` here, ``tests/core/test_native_drain.py`` and
``tests/core/test_native_walk.py``) hold them to:

* :class:`Handlers` runs accesses of a :class:`~repro.coherence.system.
  TiledCMP` one at a time through the handlers, over the caches' and
  directories' public API (``touch_code``, ``fill_miss_code``,
  ``lookup``, ``add_sharer``, ``acquire_exclusive``, ``remove_sharer``, ...),
  and counts their traffic.  The directories' own operations, the stash's
  included, define what the directory does; the walk a full insert runs is
  :meth:`~repro.core.cuckoo_hash.CuckooHashTable.walk`.
* :func:`walk_python` is the displacement walk as a Python loop, with
  :meth:`~repro.core.cuckoo_hash.CuckooHashTable.walk`'s signature.  A test
  that wants the handlers to walk in Python monkeypatches it over that
  method.
* :func:`canonical_state` is the state two runs of one system must agree
  on, and :func:`table_state` its part for one table.
"""

from repro.cache.cache import STATE_EXCLUSIVE, STATE_MODIFIED, STATE_SHARED
from repro.coherence.interconnect import MeshInterconnect
from repro.coherence.messages import MessageType
from repro.config import CacheLevel

#: Vacant-slot sentinel of the tables' key buffers.
EMPTY = -1


def walk_python(table, key, value):
    """The displacement walk: the reference for the compiled one.

    Writes ``key`` over its candidate in the start way, then re-places each
    displaced entry in the next way round-robin, one attempt per placement,
    until an entry lands in a vacant slot or ``max_attempts`` placements
    are made.  Each key's candidate comes from the table's hash family, in
    Python.  The start way moves to where the walk stopped, and the table
    grows by one unless the walk was cut off.

    Returns ``(attempts, evicted_key, evicted_value)``: the evicted pair is
    ``None, None`` unless the walk was cut off and threw its last displaced
    entry out of the table.
    """
    keys, values, meta = table._keys, table._masks, table._meta
    family, sets, way = table.hash_family, table.num_sets, meta[1]
    attempts = 0
    while attempts < table.max_attempts:
        attempts += 1
        slot = way * sets + family.index(way, key)
        key, keys[slot] = keys[slot], key
        value, values[slot] = values[slot], value
        if key == EMPTY:
            meta[0] += 1
            meta[1] = way
            return attempts, None, None
        way = (way + 1) % table.num_ways
    meta[1] = way
    return attempts, key, value


class Handlers:
    """The MESI protocol of one :class:`TiledCMP`, one access at a time.

    A read or write miss sends its request home, where the directory is
    consulted (a read adds the requester and downgrades an M/E owner; a
    write makes it the only sharer and invalidates the rest), forced
    invalidations are applied, the data comes back and the block is filled;
    the fill's victim is reported home.  A write hit in S upgrades through
    the home; a write hit in E upgrades silently.  Every message is counted
    into ``system.traffic`` with its mesh hops.
    """

    def __init__(self, system):
        self.system = system
        config = system.config
        cores = range(config.num_cores)
        mesh = MeshInterconnect(config.num_cores)
        self._hops = [[mesh.hops(source, target) for target in cores] for source in cores]
        self._caches = system.tracked_caches
        self._banks = system.l2_banks
        self._directories = system.directories
        self._core_of = [system.core_of_cache(cache) for cache in range(len(self._caches))]
        self._l1_tracked = config.tracked_level is CacheLevel.L1

    def run(self, stream):
        """Run ``(core, address, is_write, is_instruction)`` tuples in order."""
        for access in stream:
            self.access(*access)

    def access(self, core, address, is_write, is_instruction=False):
        """Execute one access."""
        system = self.system
        if not 0 <= core < system.config.num_cores:
            raise IndexError(f"core {core} out of range")
        system._accesses += 1
        block = system.block_address(address)
        cache_id = system.tracked_cache_id(core, is_instruction)
        home = system.home_slice(block)
        local = system.slice_local_address(block)
        cache = self._caches[cache_id]
        state = cache.touch_code(block, is_write)
        if state >= 0:
            if is_write and state != STATE_MODIFIED:
                self._write_hit_upgrade(block, local, home, cache_id, cache, state)
            return
        if self._banks is not None:
            bank = self._banks[home]
            if bank.touch_code(block, is_write) < 0:
                bank.fill_miss_code(block)
        self._miss(block, local, home, cache_id, cache, is_write)

    def _write_hit_upgrade(self, block, local, home, cache_id, cache, state):
        """A write hit in E (silent) or S (through the home)."""
        if state == STATE_EXCLUSIVE:
            cache.set_state_code(block, STATE_MODIFIED)
            return
        self._send(MessageType.GET_MODIFIED, self._core_of[cache_id], home)
        result = self._directories[home].acquire_exclusive(local, cache_id)
        self._invalidate_others(block, result.coherence_invalidations, home, cache_id)
        self._force_out(result.invalidations, home)
        cache.set_state_code(block, STATE_MODIFIED)

    def _miss(self, block, local, home, cache_id, cache, is_write):
        """A read or write miss: the request, the directory, the data, the fill."""
        core = self._core_of[cache_id]
        directory = self._directories[home]
        if is_write:
            self._send(MessageType.GET_MODIFIED, core, home)
            result = directory.acquire_exclusive(local, cache_id)
            self._invalidate_others(block, result.coherence_invalidations, home, cache_id)
            new_state = STATE_MODIFIED
        else:
            self._send(MessageType.GET_SHARED, core, home)
            existing = directory.lookup(local)
            result = directory.add_sharer(local, cache_id)
            if existing.found:
                self._downgrade_owner(block, existing.sharers, home, cache_id)
            new_state = STATE_SHARED if existing.found else STATE_EXCLUSIVE
        self._force_out(result.invalidations, home)
        self._send(MessageType.DATA, home, core)
        victim = cache.fill_miss_code(block, new_state, is_write)
        if victim >= 0:
            slices = len(self._directories)
            message = (
                MessageType.PUT_MODIFIED if cache.victim_dirty else MessageType.PUT_SHARED
            )
            self._send(message, core, victim % slices)
            self._directories[victim % slices].remove_sharer(victim // slices, cache_id)

    def _downgrade_owner(self, block, sharers, home, requester):
        """On a read miss, an M/E owner is downgraded to S."""
        for sharer in sharers:
            if sharer == requester:
                continue
            owner_cache = self._caches[sharer]
            state = owner_cache.state_code_of(block)
            if state >= STATE_EXCLUSIVE:
                self._send(MessageType.FWD_GET, home, self._core_of[sharer])
                if state == STATE_MODIFIED:
                    self._send(MessageType.PUT_MODIFIED, self._core_of[sharer], home)
                owner_cache.set_state_code(block, STATE_SHARED)

    def _invalidate_others(self, block, sharers, home, requester):
        """A write invalidates the accessed block in every other sharer."""
        for sharer in sharers:
            if sharer != requester:
                self._invalidate(block, sharer, home)

    def _force_out(self, invalidations, home):
        """Drop the blocks whose directory entries were victimised; victim
        addresses arrive slice-local."""
        for invalidation in invalidations:
            block = self.system.global_address(invalidation.address, home)
            for sharer in invalidation.caches:
                self._invalidate(block, sharer, home)

    def _invalidate(self, block, sharer, home):
        self._send(MessageType.INVALIDATE, home, self._core_of[sharer])
        self._caches[sharer].invalidate(block)
        self._send(MessageType.INV_ACK, self._core_of[sharer], home)

    def _send(self, message, source, target):
        self.system.traffic.record(message, hops=self._hops[source][target])


def table_state(table):
    """One table: its keys, values and LRU stamps, slot by slot, and its
    size, start way and clock."""
    return (
        list(table._keys),
        list(table._masks),
        None if table._stamps is None else list(table._stamps),
        list(table._meta),
    )


def _directory_stats(stats):
    return list(stats._row), stats.occupancy_samples, stats.occupancy_sum


def canonical_state(system):
    """The state two runs of one system must agree on.

    Every statistic (directories, caches, banks, traffic, accesses); each
    cache's and bank's frames (tag, state, dirty, stamp) and clock; each
    directory table (:func:`table_state`); and each stash's entries (key and
    mask), oldest first.
    """
    caches = list(system.tracked_caches) + list(system.l2_banks or ())
    traffic = system.traffic
    return {
        "accesses": system.accesses_processed,
        "traffic": (dict(traffic.messages), traffic.hops, traffic.bytes_transferred),
        "caches": [
            (
                list(cache._counts),
                list(zip(cache._tags, cache._states, cache._dirty, cache._stamps)),
            )
            for cache in caches
        ],
        "directories": [
            (
                _directory_stats(directory.stats),
                table_state(directory.table),
                list(zip(directory._stash_keys, directory._stash_masks)),
                directory._parks[0],
            )
            for directory in system.directories
        ],
    }
