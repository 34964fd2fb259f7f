"""Tiled-CMP coherence model.

:class:`TiledCMP` wires together the private caches, the address-interleaved
directory slices, and a mesh hop model, and executes memory accesses the way
Figure 2 of the paper describes: the accessing core's private cache is tried
first; misses and write-upgrades travel to the block's *home* tile, where the
directory slice is consulted and invalidations are sent to the sharers it
reports.

Two configurations are supported, matching Section 5:

* ``CacheLevel.L1`` (**Shared-L2**): the tracked private caches are the split
  I/D L1s (two per core); an address-interleaved shared L2 sits behind them
  and is modelled for hit-rate/traffic statistics.
* ``CacheLevel.L2`` (**Private-L2**): the tracked private caches are unified
  1 MB private L2s (one per core).  The small L1s in front of them are not
  modelled: they filter repeated hits to hot blocks but do not change which
  blocks are resident in the L2s, which is the only thing the directory
  observes (this substitution is recorded in DESIGN.md).

The directory organization is supplied as a factory so identical access
streams can be replayed against Sparse, Skewed, Duplicate-Tag, Tagless or
Cuckoo organizations.

Execution paths
---------------
The protocol has one definition: the handlers (:meth:`TiledCMP._access_block`
and the ``_handle_*`` methods).  :meth:`TiledCMP.access` and
:meth:`TiledCMP.access_scalar` run them for one access;
:meth:`TiledCMP.access_batch` runs a slice of a trace chunk with all
per-access address math (page translation, block/home/local derivation,
tracked-cache selection) numpy-precomputed and the core-range check hoisted
to one chunk-level validation.  It then takes one of two paths, chosen from
what it can observe and bit-identical in every statistic:

* the **fast path** — the vectorized drain, every access of the chunk in
  trace order — when every directory slice is a plain table-backed
  directory (Cuckoo, Sparse, Skewed or In-Cache, :class:`~repro.
  directories.table.TableDirectory`) with a full bit vector (it exposes
  ``drain_handles()``);
* the **handler loop** — each access through the handlers — otherwise:
  the stashed cuckoo, Duplicate-Tag and Tagless organizations and rich
  sharer encodings.

Internally the protocol operates on integer MESI codes
(:data:`repro.cache.cache.STATE_TO_CODE`); the :class:`~repro.cache.cache.
CoherenceState` enum appears only at the public cache API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cache.cache import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
    SetAssociativeCache,
)
from repro.config import CacheLevel, SystemConfig
from repro.coherence.interconnect import MeshInterconnect
from repro.coherence.messages import (
    MESSAGE_BYTES_BY_TYPE,
    MessageType,
    TrafficStats,
)
from repro.coherence.paging import PageMapper
from repro.core.cuckoo_hash import _INDICES_CACHE_LIMIT
from repro.directories.base import Directory, DirectoryStats, Invalidation, UpdateResult
from repro.directories.sharers import FullBitVector
from repro.obs.metrics import counter as _obs_counter
from repro.obs.tracing import TRACER as _TRACER

__all__ = ["MemoryAccess", "DirectoryFactory", "TiledCMP"]

# Telemetry at chunk granularity only (DESIGN.md "Observability"): one
# counter bump and two spans per access_batch call, nothing per access.
# The instruments are free no-ops until repro.obs.enable() swaps them.
_BATCH_CHUNKS = _obs_counter(
    "sim.batch.chunks", help="access_batch slices executed"
)
_BATCH_ACCESSES = _obs_counter(
    "sim.batch.accesses", help="accesses executed through access_batch"
)
_BATCH_DRAINED = _obs_counter(
    "sim.batch.drained",
    help="accesses executed by the vectorized drain",
)
# Drain telemetry (DESIGN.md "The vectorized drain pipeline"): the
# fast-path / handler-loop split plus the vector drain's per-class
# retirement counts, all bumped once per chunk from chunk-local
# accumulators.
_DRAIN_VECTOR = _obs_counter(
    "sim.drain.vector_resolved",
    help="drained accesses resolved by the vectorized drain pipeline",
)
_DRAIN_SCALAR = _obs_counter(
    "sim.drain.scalar_fallback",
    help="accesses executed by the handler loop instead of the fast path "
    "(stash, duplicate-tag, tagless or rich sharer encodings)",
)
_DRAIN_CLS_HITS = _obs_counter(
    "sim.drain.class_hits",
    help="drained accesses that were cache hits needing no directory",
)
_DRAIN_CLS_UPGRADES = _obs_counter(
    "sim.drain.class_upgrades",
    help="write-hit S/E->M upgrades resolved in the drain",
)
_DRAIN_CLS_READ_DIRHIT = _obs_counter(
    "sim.drain.class_read_dirhit",
    help="read misses that hit an existing directory entry",
)
_DRAIN_CLS_READ_INSERT = _obs_counter(
    "sim.drain.class_read_insert",
    help="read misses that allocated a fresh directory entry",
)
_DRAIN_CLS_WRITE_MISS = _obs_counter(
    "sim.drain.class_write_miss",
    help="write misses resolved in the drain",
)
_DRAIN_CLS_WALKS = _obs_counter(
    "sim.drain.class_walks",
    help="insertions that found every candidate full: a displacement walk "
    "(cuckoo) or an LRU eviction (sparse, skewed), scalar by design",
)

# Hot-path message constants: hoisted enum members and their byte costs so
# the inlined traffic recording does no enum attribute traversal.
_GET_SHARED = MessageType.GET_SHARED
_GET_MODIFIED = MessageType.GET_MODIFIED
_PUT_SHARED = MessageType.PUT_SHARED
_PUT_MODIFIED = MessageType.PUT_MODIFIED
_DATA = MessageType.DATA
_INVALIDATE = MessageType.INVALIDATE
_INV_ACK = MessageType.INV_ACK
_FWD_GET = MessageType.FWD_GET
_GET_SHARED_BYTES = MESSAGE_BYTES_BY_TYPE[_GET_SHARED]
_GET_MODIFIED_BYTES = MESSAGE_BYTES_BY_TYPE[_GET_MODIFIED]
_PUT_SHARED_BYTES = MESSAGE_BYTES_BY_TYPE[_PUT_SHARED]
_PUT_MODIFIED_BYTES = MESSAGE_BYTES_BY_TYPE[_PUT_MODIFIED]
_DATA_BYTES = MESSAGE_BYTES_BY_TYPE[_DATA]
_INVALIDATE_BYTES = MESSAGE_BYTES_BY_TYPE[_INVALIDATE]
_INV_ACK_BYTES = MESSAGE_BYTES_BY_TYPE[_INV_ACK]
_FWD_GET_BYTES = MESSAGE_BYTES_BY_TYPE[_FWD_GET]


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference issued by a core.

    ``address`` is a byte address; the system converts it to a block
    address internally.  ``is_instruction`` selects the L1 instruction
    cache in the Shared-L2 configuration (ignored in Private-L2).
    """

    core: int
    address: int
    is_write: bool = False
    is_instruction: bool = False


#: Signature of a directory-slice factory: ``(num_tracked_caches, slice_id)``.
DirectoryFactory = Callable[[int, int], Directory]


class TiledCMP:
    """Trace-driven tiled CMP with a pluggable coherence directory."""

    def __init__(
        self,
        config: SystemConfig,
        directory_factory: DirectoryFactory,
        track_traffic: bool = True,
        page_mapper: Optional[PageMapper] = None,
        page_mapper_seed: int = 0,
    ) -> None:
        self._config = config
        self._track_traffic = track_traffic
        self._offset_bits = config.tracked_cache_config.block_offset_bits
        # Virtual-to-physical translation (OS first-touch allocation): see
        # repro.coherence.paging for why this matters to directory conflicts.
        self._page_mapper = page_mapper or PageMapper(
            page_bytes=config.page_bytes, seed=page_mapper_seed
        )
        num_cores = config.num_cores

        # Tracked private caches: index == tracked cache id.
        self._tracked: List[SetAssociativeCache] = []
        if config.tracked_level is CacheLevel.L1:
            for core in range(num_cores):
                self._tracked.append(
                    SetAssociativeCache(config.l1_config, name=f"l1i-{core}")
                )
                self._tracked.append(
                    SetAssociativeCache(config.l1_config, name=f"l1d-{core}")
                )
            # The shared L2 is modelled for hit-rate statistics only.
            self._l2_banks: Optional[List[SetAssociativeCache]] = [
                SetAssociativeCache(config.l2_config, name=f"l2-bank-{core}")
                for core in range(num_cores)
            ]
        else:
            for core in range(num_cores):
                self._tracked.append(
                    SetAssociativeCache(config.l2_config, name=f"l2-{core}")
                )
            self._l2_banks = None

        num_tracked = len(self._tracked)
        self._directories: List[Directory] = [
            directory_factory(num_tracked, slice_id)
            for slice_id in range(config.num_directory_slices)
        ]
        self._mesh = MeshInterconnect(num_cores)
        self._traffic = TrafficStats()
        self._accesses = 0
        # Hot-path state hoisted out of the per-access methods: the tracked
        # level as a plain bool, the slice count, and an all-pairs hop table
        # (cores² entries) so traffic recording is two list indexings.
        self._l1_tracked = config.tracked_level is CacheLevel.L1
        self._num_cores = num_cores
        self._num_slices = len(self._directories)
        self._hop_table: List[List[int]] = [
            [self._mesh.hops(source, destination) for destination in range(num_cores)]
            for source in range(num_cores)
        ]
        self._core_of: List[int] = [
            self.core_of_cache(cache_id) for cache_id in range(num_tracked)
        ]
        self._hop_matrix = np.asarray(self._hop_table, dtype=np.int64)
        # Fast-path support decision, resolved lazily on the first chunk
        # (see _drain_vector_config): None = unresolved, False =
        # unsupported, else the shared-or-per-slice hash family marker
        # tuple.
        self._drain_vector_support: object = None

    # -- geometry / accessors ------------------------------------------------
    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def directories(self) -> Sequence[Directory]:
        return tuple(self._directories)

    @property
    def tracked_caches(self) -> Sequence[SetAssociativeCache]:
        return tuple(self._tracked)

    @property
    def l2_banks(self) -> Optional[Sequence[SetAssociativeCache]]:
        return tuple(self._l2_banks) if self._l2_banks is not None else None

    @property
    def traffic(self) -> TrafficStats:
        return self._traffic

    @property
    def accesses_processed(self) -> int:
        return self._accesses

    @property
    def page_mapper(self) -> PageMapper:
        return self._page_mapper

    def block_address(self, byte_address: int) -> int:
        """Physical block address of a virtual byte address."""
        return self._page_mapper.translate(byte_address) >> self._offset_bits

    def home_slice(self, block: int) -> int:
        """Home tile of a block (static address interleaving).

        NOTE: ``access_scalar``, ``_evict_notify``, ``_drain_batch_vector``
        and ``PageMapper.translate_blocks`` (behind ``access_batch``)
        compute this rule (and :meth:`slice_local_address`; the drain also
        :meth:`global_address`, for forced-invalidation victims) directly
        against the slice count; change the interleaving everywhere
        together.
        """
        return block % self._num_slices

    def slice_local_address(self, block: int) -> int:
        """Block address as seen by its home directory slice.

        The interleaving bits select the slice and are therefore constant
        for every block a slice sees; real hardware strips them before
        indexing the slice's tag store (otherwise only ``1/num_slices`` of
        the sets would ever be used).  Directories in this model operate
        on these slice-local addresses.
        """
        return block // self._num_slices

    def global_address(self, local_block: int, slice_id: int) -> int:
        """Inverse of :meth:`slice_local_address` for a given home slice."""
        return local_block * self._num_slices + slice_id

    def tracked_cache_id(self, core: int, is_instruction: bool) -> int:
        """Tracked-cache id for an access issued by ``core``."""
        if not 0 <= core < self._config.num_cores:
            raise IndexError(f"core {core} out of range")
        if self._config.tracked_level is CacheLevel.L1:
            return core * 2 + (0 if is_instruction else 1)
        return core

    def core_of_cache(self, cache_id: int) -> int:
        """Core (tile) that owns a tracked cache."""
        if self._config.tracked_level is CacheLevel.L1:
            return cache_id // 2
        return cache_id

    # -- statistics ------------------------------------------------------------
    def directory_stats(self) -> DirectoryStats:
        """Statistics merged across all directory slices."""
        merged = DirectoryStats()
        for directory in self._directories:
            merged = merged.merge(directory.stats)
        return merged

    def sample_occupancy(self) -> float:
        """Sample every slice's occupancy; returns the mean of this sample."""
        values = [directory.sample_occupancy() for directory in self._directories]
        return sum(values) / len(values)

    # -- timeline hooks (repro.obs.timeline) ----------------------------------
    # Read-only counter probes for interval sampling.  None of these mutate
    # statistics — ``bank_occupancies`` deliberately reads ``occupancy()``
    # rather than ``sample_occupancy()`` — so taking a timeline sample never
    # changes what the run reports.
    def timeline_counters(self) -> "dict":
        """Scalar channel values for one timeline sample."""
        stats = self.directory_stats()
        traffic = self._traffic
        hits = 0
        accesses = 0
        for cache in self._tracked:
            hits += cache.stats.hits
            accesses += cache.stats.accesses
        l2_hits = 0
        l2_accesses = 0
        if self._l2_banks is not None:
            for bank in self._l2_banks:
                l2_hits += bank.stats.hits
                l2_accesses += bank.stats.accesses
        return {
            "forced_invalidations": stats.forced_invalidations,
            "insertions": stats.insertions,
            "insertion_attempts": stats.insertion_attempts,
            "stash_occupancy": sum(
                directory.stash_occupancy for directory in self._directories
            ),
            "tracked_hit_rate": hits / accesses if accesses else 0.0,
            "shared_l2_hit_rate": l2_hits / l2_accesses if l2_accesses else 0.0,
            "total_messages": traffic.total_messages,
            "traffic_bytes": traffic.bytes_transferred,
            "traffic_hops": traffic.hops,
        }

    def bank_occupancies(self) -> "list":
        """Per-slice occupancy fractions, in slice order (non-mutating)."""
        return [directory.occupancy() for directory in self._directories]

    def attempt_chain_bins(self, bins: int) -> "list":
        """Insertion-attempt histogram folded into chain-length bins.

        Bin ``i`` counts insertions that took ``i + 1`` attempts; the last
        bin absorbs everything at or beyond ``bins`` attempts (Figure 11's
        "5+" bucket for the default five bins).
        """
        counts = [0] * bins
        for directory in self._directories:
            for attempts, count in directory.stats.attempt_histogram.items():
                counts[min(max(int(attempts), 1), bins) - 1] += count
        return counts

    def reset_stats(self) -> None:
        """Clear directory, cache and traffic statistics (end of warm-up)."""
        for directory in self._directories:
            directory.reset_stats()
        for cache in self._tracked:
            cache.reset_stats()
        if self._l2_banks is not None:
            for bank in self._l2_banks:
                bank.reset_stats()
        self._traffic = TrafficStats()

    # -- the access path ---------------------------------------------------------
    def access(self, access: MemoryAccess) -> None:
        """Execute one memory access through the coherence protocol."""
        core = access.core
        if not 0 <= core < self._num_cores:
            raise IndexError(f"core {core} out of range")
        self.access_scalar(core, access.address, access.is_write, access.is_instruction)

    def access_scalar(
        self, core: int, address: int, is_write: bool, is_instruction: bool
    ) -> None:
        """Execute one access given as plain scalars.

        Behaviourally identical to :meth:`access`, except that ``core`` is
        trusted: range validation lives in :meth:`access` and in the
        chunk-level validation of :meth:`access_batch`, not here.
        """
        self._accesses += 1
        block = self._page_mapper.translate(address) >> self._offset_bits
        if self._l1_tracked:
            cache_id = core * 2 + (0 if is_instruction else 1)
        else:
            cache_id = core
        num_slices = self._num_slices
        self._access_block(
            block, block // num_slices, block % num_slices, cache_id, is_write
        )

    def access_batch(
        self,
        cores: Sequence[int],
        addresses: Sequence[int],
        writes: Sequence[bool],
        instrs: Sequence[bool],
        start: int = 0,
        stop: Optional[int] = None,
    ) -> int:
        """Execute the ``[start, stop)`` slice of a trace chunk; returns its size.

        The chunk fields may be numpy arrays (trace replays, vectorised
        generators) or plain sequences.  Address math runs vectorised over
        the whole slice — page translation, block/home/local derivation and
        tracked-cache selection — so the per-access loop does none; the
        ``0 <= core < num_cores`` check runs once per slice instead of per
        access.  Equivalent to calling :meth:`access_scalar` per element.

        Execution then takes one of two paths (module docstring, and
        DESIGN.md "Hot-path data layout"), bit-identical in every statistic
        and in all directory/cache state:

        * **fast path** — every access of the slice through the vectorized
          drain in trace order (:meth:`_drain_batch_vector`).  Taken
          whenever every slice exposes ``drain_handles()``: the Cuckoo,
          Sparse, Skewed and In-Cache organizations with a full bit
          vector.
        * **handler loop** — every access through :meth:`_access_block`.
        """
        cores = np.asarray(cores)
        if stop is None:
            stop = len(cores)
        count = stop - start
        if count <= 0:
            return 0
        seg_cores = cores[start:stop]
        # Chunk-level validation, hoisted out of the per-access path: a
        # malformed trace fails before any of the slice executes.
        if int(seg_cores.min()) < 0 or int(seg_cores.max()) >= self._num_cores:
            raise IndexError(
                f"core out of range [0, {self._num_cores}) in trace chunk"
            )
        with _TRACER.span("translate"):
            block_array, locals_array, homes_array = self._page_mapper.translate_blocks(
                np.asarray(addresses)[start:stop],
                self._offset_bits,
                self._num_slices,
            )
            if self._l1_tracked:
                instr_segment = np.asarray(instrs)[start:stop]
                cache_id_array = (
                    seg_cores * 2 + np.where(instr_segment, 0, 1)
                ).astype(np.int64)
            else:
                cache_id_array = seg_cores.astype(np.int64)
            write_array = np.asarray(writes)[start:stop].astype(bool)
        self._accesses += count
        _BATCH_CHUNKS.inc()
        _BATCH_ACCESSES.add(count)
        vector_config = self._drain_vector_config()
        if vector_config is not None:
            with _TRACER.span("drain_vector"):
                self._drain_batch_vector(
                    block_array, locals_array, homes_array,
                    cache_id_array, write_array, vector_config,
                )
            _BATCH_DRAINED.add(count)
        else:
            access_block = self._access_block
            with _TRACER.span("drain_scalar"):
                for args in zip(
                    block_array.tolist(), locals_array.tolist(),
                    homes_array.tolist(), cache_id_array.tolist(),
                    write_array.tolist(),
                ):
                    access_block(*args)
            _DRAIN_SCALAR.add(count)
        return count

    def _drain_vector_config(self) -> Optional[tuple]:
        """Support decision for the fast path, resolved once.

        Returns ``None`` when any slice lacks the inlined-directory drain
        handles (organizations not backed by the one directory table, stash
        variants, rich sharer encodings), else a one-element tuple holding
        the hash family shared by every slice — or ``None`` inside the
        tuple when the slices hash differently and the pre-pass must group
        by home.
        The directories never change after construction, so the decision
        is cached; the per-chunk state (stats objects, table arrays) is
        re-fetched from ``drain_handles`` on every drained chunk.
        """
        support = self._drain_vector_support
        if support is None:
            support = False
            if all(
                getattr(directory, "drain_handles", lambda: None)() is not None
                for directory in self._directories
            ):
                families = [
                    directory.table.hash_family
                    for directory in self._directories
                ]
                keys = [family.batch_key() for family in families]
                shared = (
                    families[0]
                    if keys[0] is not None
                    and all(key == keys[0] for key in keys)
                    else None
                )
                support = (shared,)
            self._drain_vector_support = support
        return support or None

    def _drain_batch_vector(
        self,
        blocks_a: np.ndarray,
        locals_a: np.ndarray,
        homes_a: np.ndarray,
        caches_a: np.ndarray,
        writes_a: np.ndarray,
        vector_config: tuple,
    ) -> None:
        """Vectorized drain pipeline (DESIGN.md "The vectorized drain pipeline").

        Runs every access of a chunk in trace order, bit-identical to
        running the handlers (:meth:`_access_block`) per access
        (``tests/coherence/test_access_paths.py`` asserts this at every
        chunk shape, under tight tables too), restructured around a numpy
        pre-pass so the per-access protocol loop touches no hash function,
        no hop table, no LRU clock, no bank model and almost no traffic or
        statistics bookkeeping:

        * **Exact stamps.**  Every access advances its cache's LRU clock by
          exactly one (a hit touches, a miss fills), so the stamp access
          ``i`` writes is its cache's clock at entry plus its rank among
          that cache's accesses in the chunk, whatever the protocol does in
          between.  One stable sort by cache computes every stamp; each
          clock is settled once, at the flush.
        * **Batch hashing.**  Every slice-local address is hashed across
          all directory ways in one vectorized call
          (``HashFamily.batch_indices``) — one call for the whole chunk
          when every slice shares a hash family, else one per home group.
          The insert path then reads precomputed candidate rows instead
          of probing the per-table indices cache.
        * **All-miss accounting.**  Traffic (request + response hops,
          message counts, bytes), per-home directory lookups and per-cache
          miss counts are computed vectorized under the assumption that
          every access misses.  A hit only records its chunk position; the
          flush *corrects* the baselines from those positions in a few
          vectorized reductions, so neither class pays per-access
          accounting.
        * **Bank decoupling.**  The shared-L2 bank model reads nothing
          from the protocol and feeds nothing back into it, so bank
          updates are recorded as ``(block, home, write)`` events in trace
          order and replayed in a dedicated pass after the protocol loop.

        * **One LRU branch.**  Sparse and Skewed tables (the LRU insert
          policy) stamp their slot at every directory hit and vacant
          insert; a cuckoo table skips the stamp and advances its
          round-robin start way instead.  An insert that finds every
          candidate full goes to one scalar helper either way: the walk,
          or the LRU eviction, both through ``insert_absent``.

        Trace order is preserved throughout — conflicting accesses
        (same block, same (cache, set), same directory slot) simply
        execute in their original relative order, which makes the
        reordering-safety argument trivial.  Displacement walks, LRU
        evictions, forced invalidations and write upgrades with remote
        sharers stay on the scalar helper paths by construction; stash
        variants and rich sharer encodings never reach this method
        (:meth:`_drain_vector_config`).
        """
        (shared_family,) = vector_config
        # Module-level protocol constants rebound as locals: the loop
        # below reads them on every access, and LOAD_FAST beats the
        # global lookup by enough to matter at this iteration count.
        state_m = STATE_MODIFIED
        state_e = STATE_EXCLUSIVE
        state_s = STATE_SHARED
        bitvec_cls = FullBitVector
        putm_bytes = _PUT_MODIFIED_BYTES
        puts_bytes = _PUT_SHARED_BYTES
        inv_bytes = _INVALIDATE_BYTES
        ack_bytes = _INV_ACK_BYTES
        fwd_bytes = _FWD_GET_BYTES
        getm_bytes = _GET_MODIFIED_BYTES
        gets_bytes = _GET_SHARED_BYTES
        data_bytes = _DATA_BYTES
        tracked = self._tracked
        num_tracked = len(tracked)
        num_ways = tracked[0].num_ways
        num_slices = self._num_slices
        directories = self._directories
        core_of = self._core_of
        hop_table = self._hop_table
        hop_rows = [hop_table[core] for core in core_of]
        track = self._track_traffic
        traffic = self._traffic
        messages = traffic.messages
        hops_acc = 0
        bytes_acc = 0
        cache_arrs = [
            (
                cache._location, cache._tags, cache._states, cache._dirty,
                cache._stamps, cache._set_counts,
            )
            for cache in tracked
        ]
        locations_get = [cache._location.get for cache in tracked]
        states_of = [cache._states for cache in tracked]
        dirty_of = [cache._dirty for cache in tracked]
        stamps_of = [cache._stamps for cache in tracked]
        evict_delta = [0] * num_tracked
        dirty_evict_delta = [0] * num_tracked

        banks = self._l2_banks
        use_banks = banks is not None

        num_homes = len(directories)
        bundles = [directory.drain_handles() for directory in directories]
        first_dir = directories[0]
        dir_lookup_bits = first_dir._lookup_tag_bits
        dir_payload_bits = first_dir._payload_bits
        dir_entry_bits = first_dir._entry_bits
        dir_caches = first_dir._num_caches
        d_table = [b[0] for b in bundles]
        d_loc = [b[1] for b in bundles]
        d_keys = [b[2] for b in bundles]
        d_val = [b[3] for b in bundles]
        d_wo = [b[4] for b in bundles]
        d_pool = [b[5] for b in bundles]
        d_stats = [b[6] for b in bundles]
        # Cuckoo tables: the indices cache walks read.  LRU tables (sparse,
        # skewed): per-way stamp arrays, stamped from the table's own clock.
        # Each list holds None for the other policy.
        d_ic = [table._indices_cache for table in d_table]
        d_st = [table._stamps for table in d_table]
        ic_limit = _INDICES_CACHE_LIMIT
        d_loc_get = [locator.get for locator in d_loc]
        # Shadowed round-robin insertion cursor, written back at flush
        # (resynced after a displacement walk, which rotates it inside
        # the table).  LRU tables keep it at way 0: fixed way order.
        d_sw = [table._start_way for table in d_table]
        # Two counters are derived at flush instead of tracked in-loop:
        # sharer additions equal lookup hits (every drain path that finds
        # an entry adds a sharer bit), and the table-size delta equals
        # vacant-slot inserts minus entry removals (all-full inserts
        # maintain ``table._size`` themselves via ``insert_absent``).
        a_lh = [0] * num_homes
        a_i1 = [0] * num_homes
        a_sr = [0] * num_homes
        a_er = [0] * num_homes
        a_io = [0] * num_homes
        # Live traffic counters: only the unpredictable events (evictions,
        # invalidations, owner downgrades) add to these in-loop; the
        # all-miss baseline covers the rest.
        n_inv = n_ack = n_putM = n_putS = n_fwd = 0
        # Per-class retirement counters (sim.drain.*): in-branch for the
        # cheap-to-count classes, derived at flush for the rest.
        n_rdh = n_walk = 0
        # Chunk positions of the hits that need no directory (reads, and
        # writes in E or M) and of the S -> M upgrades: the flush corrects
        # the all-miss baselines from them.
        hits: List[int] = []
        upgrades: List[int] = []
        hit_app = hits.append

        # -- vectorized pre-pass -------------------------------------------
        count = int(blocks_a.size)
        sets_a = blocks_a % tracked[0].num_sets
        # (1) Exact stamps: group the chunk by cache (stable, so trace
        # order holds within a group) and offset each group's ranks by its
        # cache's clock at entry.
        cache_counts = np.bincount(caches_a, minlength=num_tracked)
        clock0 = np.fromiter(
            (cache._clock for cache in tracked), dtype=np.int64, count=num_tracked
        )
        stamps_a = np.empty(count, dtype=np.int64)
        stamps_a[np.argsort(caches_a, kind="stable")] = np.arange(
            1, count + 1, dtype=np.int64
        ) + np.repeat(clock0 - (np.cumsum(cache_counts) - cache_counts), cache_counts)
        db = blocks_a.tolist()
        dl = locals_a.tolist()
        dh = homes_a.tolist()
        dc = caches_a.tolist()
        dw = writes_a.tolist()
        ds = sets_a.tolist()
        dbase = (sets_a * num_ways).tolist()
        dst = stamps_a.tolist()
        # (2) Batch-hash the slice-local addresses across all ways.
        if shared_family is not None:
            cand_rows: List = shared_family.batch_indices(locals_a)
        else:
            cand_rows = [None] * count
            order = np.argsort(homes_a, kind="stable")
            sorted_homes = homes_a[order]
            boundaries = np.flatnonzero(np.diff(sorted_homes)) + 1
            for group in np.split(order, boundaries):
                home_g = int(homes_a[group[0]])
                rows = directories[home_g].table.hash_family.batch_indices(
                    locals_a[group]
                )
                for offset, member in enumerate(group.tolist()):
                    cand_rows[member] = rows[offset]
        # (3) Request and response hop counts for the whole chunk.
        hop_matrix = self._hop_matrix
        cores_a = (caches_a >> 1) if self._l1_tracked else caches_a
        h_rsp_a = hop_matrix[homes_a, cores_a]
        h_sum_a = hop_matrix[cores_a, homes_a] + h_rsp_a
        # (4) Bank events accumulate per home in trace order for the replay
        # pass — the banks are independent state machines, so each home's
        # event list replays with its bank's arrays bound once.  Events are
        # packed as ``block << 1 | is_write`` to keep the per-miss record a
        # plain int instead of a tuple allocation.
        if use_banks:
            ev_by_home: List[List[int]] = [[] for _ in banks]
            ev_app = [events.append for events in ev_by_home]

        record = self._record

        def insert_full(home: int, local_addr: int, sharer_set, indices) -> None:
            # Every candidate full: insert_absent (a displacement walk, or
            # an LRU eviction) plus direct stats; resync the start-way
            # shadow a walk rotates inside the table.
            nonlocal n_walk
            n_walk += 1
            table = d_table[home]
            ic = d_ic[home]
            if ic is not None and len(ic) < ic_limit:
                ic[local_addr] = indices
            table._start_way = d_sw[home]
            result = table.insert_absent(local_addr, sharer_set, indices)
            d_sw[home] = table._start_way
            stats = d_stats[home]
            attempts = result.attempts
            stats.insertions += 1
            stats.insertion_attempts += attempts
            stats.attempt_histogram[attempts] += 1
            stats.bits_written += attempts * dir_entry_bits
            if result.evicted:
                # Forced invalidation of the victim entry's sharers (the
                # walk's last displaced entry, or the LRU candidate).
                victim_block = result.evicted_key * num_slices + home
                victims = result.evicted_value.sharers()
                stats.forced_invalidations += 1
                stats.forced_invalidation_messages += len(victims)
                for sharer in victims:
                    record(_INVALIDATE, home, core_of[sharer])
                    tracked[sharer].invalidate(victim_block)
                    record(_INV_ACK, core_of[sharer], home)

        def insert_new(home: int, local_addr: int, mask: int, indices) -> None:
            # TableDirectory._insert_new_entry over the drain's handles: a
            # pooled sharer set takes the first vacant candidate of the
            # pre-hashed row, then the one LRU branch (stamp the slot, or
            # move the round-robin cursor and seed the indices cache); a
            # full row goes to insert_full.
            pool = d_pool[home]
            sharer_set = pool.pop() if pool else bitvec_cls(dir_caches)
            sharer_set._mask = mask
            keys_h = d_keys[home]
            for way in d_wo[home][d_sw[home]]:
                idx = indices[way]
                if keys_h[way][idx] == -1:
                    keys_h[way][idx] = local_addr
                    d_val[home][way][idx] = sharer_set
                    d_loc[home][local_addr] = (way, idx)
                    lru = d_st[home]
                    if lru is None:
                        d_sw[home] = way
                        ic = d_ic[home]
                        if len(ic) < ic_limit:
                            ic[local_addr] = indices
                    else:
                        d_table[home]._clock += 1
                        lru[way][idx] = d_table[home]._clock
                    a_i1[home] += 1
                    return
            insert_full(home, local_addr, sharer_set, indices)

        def acquire_excl(
            local_addr: int, home: int, block: int, cache_id: int, indices
        ) -> None:
            # Inlined TableDirectory.acquire_exclusive for an S -> M
            # upgrade, *without* the lookup count (the all-miss baseline
            # already accounts it).  The entry is normally present; a walk
            # that evicted its own key leaves it absent, and then it is
            # inserted like a write miss's.
            nonlocal hops_acc, bytes_acc, n_inv, n_ack
            wbit = 1 << cache_id
            loc = d_loc[home].get(local_addr)
            if loc is None:
                insert_new(home, local_addr, wbit, indices)
                return
            a_lh[home] += 1
            way, idx = loc
            lru = d_st[home]
            if lru is not None:
                d_table[home]._clock += 1
                lru[way][idx] = d_table[home]._clock
            sharer_set = d_val[home][way][idx]
            prior = sharer_set._mask
            others = prior & ~wbit
            if not others:
                sharer_set._mask = prior | wbit
                return
            sharer_set._mask = wbit
            a_io[home] += 1
            a_sr[home] += bin(others).count("1")
            while others:
                low = others & -others
                others -= low
                sharer = low.bit_length() - 1
                if track:
                    sharer_core = core_of[sharer]
                    n_inv += 1
                    hops_acc += hop_table[home][sharer_core]
                    bytes_acc += inv_bytes
                    n_ack += 1
                    hops_acc += hop_table[sharer_core][home]
                    bytes_acc += ack_bytes
                tracked[sharer].invalidate(block)

        # -- the protocol loop (trace order) ---------------------------------
        # Direct unpacking in the for header keeps the result tuple's
        # refcount at one so zip can recycle it instead of allocating a
        # fresh tuple per access.
        for (
            position, block, local_addr, home, cache_id, is_write,
            set_index, base, stamp, indices,
        ) in zip(range(count), db, dl, dh, dc, dw, ds, dbase, dst, cand_rows):
            frame = locations_get[cache_id](block)
            if frame is not None:
                # Hit: stamp recency, run any write-upgrade protocol, and
                # leave the accounting to the flush.
                stamps_of[cache_id][frame] = stamp
                if is_write:
                    dirty_of[cache_id][frame] = True
                    states = states_of[cache_id]
                    if states[frame] == state_s:
                        # S -> M: GET_M is sent (the baseline lookup and
                        # request hop stand) but no DATA comes back.
                        upgrades.append(position)
                        acquire_excl(local_addr, home, block, cache_id, indices)
                        states[frame] = state_m
                        continue
                    # Silent E -> M (M stays M): no directory traffic.
                    states[frame] = state_m
                hit_app(position)
                continue

            # Miss: queue the bank event, run the directory protocol, fill
            # inline.  Traffic and lookup counts are covered by the
            # all-miss baseline.
            if use_banks:
                ev_app[home](block << 1 | is_write)
            if is_write:
                # Inlined acquire_exclusive: insert an absent entry, or
                # invalidate the other sharers of a present one.
                wbit = 1 << cache_id
                loc = d_loc_get[home](local_addr)
                if loc is None:
                    insert_new(home, local_addr, wbit, indices)
                else:
                    a_lh[home] += 1
                    way, idx = loc
                    lru = d_st[home]
                    if lru is not None:
                        d_table[home]._clock += 1
                        lru[way][idx] = d_table[home]._clock
                    sharer_set = d_val[home][way][idx]
                    prior = sharer_set._mask
                    others = prior & ~wbit
                    if not others:
                        sharer_set._mask = prior | wbit
                    else:
                        sharer_set._mask = wbit
                        a_io[home] += 1
                        a_sr[home] += bin(others).count("1")
                        while others:
                            low = others & -others
                            others -= low
                            sharer = low.bit_length() - 1
                            if track:
                                sharer_core = core_of[sharer]
                                n_inv += 1
                                hops_acc += hop_table[home][sharer_core]
                                bytes_acc += inv_bytes
                                n_ack += 1
                                hops_acc += hop_table[sharer_core][home]
                                bytes_acc += ack_bytes
                            tracked[sharer].invalidate(block)
                new_state = state_m
                fill_dirty = True
            else:
                loc = d_loc_get[home](local_addr)
                if loc is not None:
                    # Directory hit: add the sharer bit, downgrade any
                    # M/E owner among the prior sharers.
                    n_rdh += 1
                    a_lh[home] += 1
                    way, idx = loc
                    lru = d_st[home]
                    if lru is not None:
                        d_table[home]._clock += 1
                        lru[way][idx] = d_table[home]._clock
                    sharer_set = d_val[home][way][idx]
                    prior = sharer_set._mask
                    wbit = 1 << cache_id
                    sharer_set._mask = prior | wbit
                    remaining = prior & ~wbit
                    # MESI invariant: an M/E owner holds the block
                    # exclusively, so a downgrade is only possible
                    # when exactly one prior sharer remains — the
                    # multi-sharer scan would find only S copies.
                    if remaining and not (remaining & (remaining - 1)):
                        sharer = remaining.bit_length() - 1
                        owner_frame = locations_get[sharer](block)
                        if owner_frame is not None:
                            owner_states = states_of[sharer]
                            owner_state = owner_states[owner_frame]
                            if owner_state >= state_e:
                                if track:
                                    sharer_core = core_of[sharer]
                                    n_fwd += 1
                                    hops_acc += hop_table[home][sharer_core]
                                    bytes_acc += fwd_bytes
                                    if owner_state == state_m:
                                        n_putM += 1
                                        hops_acc += hop_table[sharer_core][home]
                                        bytes_acc += putm_bytes
                                owner_states[owner_frame] = state_s
                    new_state = state_s
                else:
                    # Directory miss on a read: allocate the entry with
                    # this cache as the sole (Exclusive) sharer, using
                    # the pre-pass candidate row.
                    insert_new(home, local_addr, 1 << cache_id, indices)
                    new_state = state_e
                fill_dirty = False

            # Inline fill: the exact-stamp twin of fill_miss_code.
            location, tags, states, dirty, stamps, counts = cache_arrs[cache_id]
            if counts[set_index] < num_ways:
                frame = tags.index(-1, base, base + num_ways)
                counts[set_index] += 1
            else:
                if num_ways == 2:
                    frame = base if stamps[base] <= stamps[base + 1] else base + 1
                else:
                    row = stamps[base : base + num_ways]
                    frame = base + row.index(min(row))
                victim = tags[frame]
                victim_dirty = dirty[frame]
                evict_delta[cache_id] += 1
                if victim_dirty:
                    dirty_evict_delta[cache_id] += 1
                del location[victim]
                victim_home = victim % num_slices
                if track:
                    hops_acc += hop_rows[cache_id][victim_home]
                    if victim_dirty:
                        n_putM += 1
                        bytes_acc += putm_bytes
                    else:
                        n_putS += 1
                        bytes_acc += puts_bytes
                # Inlined remove_sharer (evict notify).
                victim_local = victim // num_slices
                loc = d_loc_get[victim_home](victim_local)
                if loc is not None:
                    way, idx = loc
                    sharer_set = d_val[victim_home][way][idx]
                    remaining = sharer_set._mask & ~(1 << cache_id)
                    sharer_set._mask = remaining
                    a_sr[victim_home] += 1
                    if not remaining:
                        del d_loc[victim_home][victim_local]
                        d_keys[victim_home][way][idx] = -1
                        d_val[victim_home][way][idx] = None
                        a_er[victim_home] += 1
                        d_pool[victim_home].append(sharer_set)
            tags[frame] = block
            states[frame] = new_state
            dirty[frame] = fill_dirty
            stamps[frame] = stamp
            location[block] = frame

        # -- bank replay: the decoupled shared-L2 model, one independent
        # pass per bank with its arrays bound once -------------------------
        if use_banks:
            bank_sets = banks[0].num_sets
            bank_ways = banks[0].num_ways
            for home, events in enumerate(ev_by_home):
                if not events:
                    continue
                bank = banks[home]
                b_location = bank._location
                b_get = b_location.get
                b_tags = bank._tags
                b_states = bank._states
                b_dirty = bank._dirty
                b_stamps = bank._stamps
                b_counts = bank._set_counts
                b_clock = bank._clock
                b_hits = b_misses = b_evicts = b_dirty_evicts = 0
                for event in events:
                    block = event >> 1
                    b_clock += 1
                    b_frame = b_get(block)
                    if b_frame is not None:
                        b_hits += 1
                        b_stamps[b_frame] = b_clock
                        if event & 1:
                            b_dirty[b_frame] = True
                        continue
                    b_misses += 1
                    b_set = block % bank_sets
                    b_base = b_set * bank_ways
                    if b_counts[b_set] < bank_ways:
                        b_frame = b_tags.index(-1, b_base, b_base + bank_ways)
                        b_counts[b_set] += 1
                    else:
                        b_row = b_stamps[b_base : b_base + bank_ways]
                        b_frame = b_base + b_row.index(min(b_row))
                        b_evicts += 1
                        if b_dirty[b_frame]:
                            b_dirty_evicts += 1
                        del b_location[b_tags[b_frame]]
                    b_tags[b_frame] = block
                    b_states[b_frame] = state_s
                    b_dirty[b_frame] = False
                    b_stamps[b_frame] = b_clock
                    b_location[block] = b_frame
                bank._clock = b_clock
                stats = bank._stats
                stats.hits += b_hits
                stats.misses += b_misses
                stats.evictions += b_evicts
                stats.dirty_evictions += b_dirty_evicts

        # -- flush: baselines minus corrections, plus the live counters ----
        hit_idx = np.array(hits, dtype=np.int64)
        up_idx = np.array(upgrades, dtype=np.int64)
        s_up = len(upgrades)
        cw = int(np.count_nonzero(writes_a[hit_idx]))
        rh = len(hits) - cw
        hits_by_cache = (
            np.bincount(caches_a[hit_idx], minlength=num_tracked)
            + np.bincount(caches_a[up_idx], minlength=num_tracked)
        ).tolist()
        for cache_id, accesses in enumerate(cache_counts.tolist()):
            if accesses:
                cache = tracked[cache_id]
                cache.advance_clock(accesses)
                stats = cache._stats
                stats.hits += hits_by_cache[cache_id]
                stats.misses += accesses - hits_by_cache[cache_id]
                stats.evictions += evict_delta[cache_id]
                stats.dirty_evictions += dirty_evict_delta[cache_id]
        # Every access but a hit that needs no directory looks up its home.
        lookups_by_home = (
            np.bincount(homes_a, minlength=num_homes)
            - np.bincount(homes_a[hit_idx], minlength=num_homes)
        ).tolist()
        for home in range(num_homes):
            table = d_table[home]
            if table._start_way != d_sw[home]:
                table._start_way = d_sw[home]
            lk = lookups_by_home[home]
            sr = a_sr[home]
            if lk or sr:
                lh = a_lh[home]
                er = a_er[home]
                i1 = a_i1[home]
                stats = d_stats[home]
                stats.lookups += lk
                stats.lookup_hits += lh
                stats.lookup_misses += lk - lh
                stats.sharer_additions += lh
                stats.sharer_removals += sr
                stats.entry_removals += er
                stats.invalidate_all_operations += a_io[home]
                stats.bits_read += (
                    lk * dir_lookup_bits + lh * dir_payload_bits
                )
                stats.bits_written += (
                    (lh + sr) * dir_payload_bits + i1 * dir_entry_bits
                )
                if i1:
                    stats.insertions += i1
                    stats.insertion_attempts += i1
                    stats.attempt_histogram[1] += i1
                if i1 != er:
                    table._size += i1 - er
        writes_total = int(np.count_nonzero(writes_a))
        reads_total = count - writes_total
        if track:
            # A hit sends neither request nor response; an S -> M upgrade
            # sends its GET_M but gets no DATA back.
            n_getS = reads_total - rh
            n_getM = writes_total - cw
            n_data = count - rh - cw - s_up
            hops_acc += (
                int(h_sum_a.sum())
                - int(h_sum_a[hit_idx].sum())
                - int(h_rsp_a[up_idx].sum())
            )
            bytes_acc += (
                n_getS * gets_bytes + n_getM * getm_bytes + n_data * data_bytes
            )
            if n_getS:
                messages[_GET_SHARED] += n_getS
            if n_getM:
                messages[_GET_MODIFIED] += n_getM
            if n_data:
                messages[_DATA] += n_data
            if n_inv:
                messages[_INVALIDATE] += n_inv
            if n_ack:
                messages[_INV_ACK] += n_ack
            if n_putM:
                messages[_PUT_MODIFIED] += n_putM
            if n_putS:
                messages[_PUT_SHARED] += n_putS
            if n_fwd:
                messages[_FWD_GET] += n_fwd
            traffic.hops += hops_acc
            traffic.bytes_transferred += bytes_acc
        _DRAIN_VECTOR.add(count)
        _DRAIN_CLS_HITS.add(rh + cw)
        _DRAIN_CLS_UPGRADES.add(s_up)
        _DRAIN_CLS_READ_DIRHIT.add(n_rdh)
        _DRAIN_CLS_READ_INSERT.add(reads_total - rh - n_rdh)
        _DRAIN_CLS_WRITE_MISS.add(writes_total - cw - s_up)
        _DRAIN_CLS_WALKS.add(n_walk)

    def _access_block(
        self, block: int, local: int, home: int, cache_id: int, is_write: bool
    ) -> None:
        """Execute one access whose address math is already resolved."""
        cache = self._tracked[cache_id]
        state = cache.touch_code(block, is_write)
        if state >= 0:
            if is_write and state != STATE_MODIFIED:
                self._write_hit_upgrade(block, local, home, cache_id, cache, state)
            return
        if self._l2_banks is not None:
            bank = self._l2_banks[home]
            if bank.touch_code(block, is_write) < 0:
                bank.fill_miss_code(block)
        if is_write:
            self._handle_write_miss(
                block, local, home, cache_id, cache, self._directories[home]
            )
        else:
            self._handle_read_miss(
                block, local, home, cache_id, cache, self._directories[home]
            )

    # -- protocol actions ----------------------------------------------------------
    def _write_hit_upgrade(
        self,
        block: int,
        local: int,
        home: int,
        cache_id: int,
        cache: SetAssociativeCache,
        state: int,
    ) -> None:
        """Write hit in E or S state (M write hits never reach here)."""
        if state == STATE_EXCLUSIVE:
            # Silent E -> M upgrade; no directory interaction needed.
            cache.set_state_code(block, STATE_MODIFIED)
            return
        # S -> M upgrade: the home must invalidate the other sharers.
        core = self._core_of[cache_id]
        if self._track_traffic:
            traffic = self._traffic
            traffic.messages[_GET_MODIFIED] += 1
            traffic.hops += self._hop_table[core][home]
            traffic.bytes_transferred += _GET_MODIFIED_BYTES
        result = self._directories[home].acquire_exclusive(local, cache_id)
        self._apply_coherence_invalidations(block, result, home, requester=cache_id)
        if result.invalidations:
            self._apply_forced_invalidations(result.invalidations, home)
        cache.set_state_code(block, STATE_MODIFIED)

    def _handle_write_miss(
        self,
        block: int,
        local: int,
        home: int,
        cache_id: int,
        cache: SetAssociativeCache,
        directory: Directory,
    ) -> None:
        core = self._core_of[cache_id]
        track = self._track_traffic
        if track:
            traffic = self._traffic
            hop_table = self._hop_table
            traffic.messages[_GET_MODIFIED] += 1
            traffic.hops += hop_table[core][home]
            traffic.bytes_transferred += _GET_MODIFIED_BYTES
        result = directory.acquire_exclusive(local, cache_id)
        self._apply_coherence_invalidations(block, result, home, requester=cache_id)
        if result.invalidations:
            self._apply_forced_invalidations(result.invalidations, home)
        if track:
            traffic.messages[_DATA] += 1
            traffic.hops += hop_table[home][core]
            traffic.bytes_transferred += _DATA_BYTES
        victim = cache.fill_miss_code(block, STATE_MODIFIED, True)
        if victim >= 0:
            self._evict_notify(victim, cache_id, core, cache.victim_dirty)

    def _handle_read_miss(
        self,
        block: int,
        local: int,
        home: int,
        cache_id: int,
        cache: SetAssociativeCache,
        directory: Directory,
    ) -> None:
        core = self._core_of[cache_id]
        track = self._track_traffic
        if track:
            traffic = self._traffic
            hop_table = self._hop_table
            traffic.messages[_GET_SHARED] += 1
            traffic.hops += hop_table[core][home]
            traffic.bytes_transferred += _GET_SHARED_BYTES
        found, prior_sharers, result = directory.lookup_add(local, cache_id)
        if found:
            self._downgrade_owner(block, prior_sharers, home, requester=cache_id)
            new_state = STATE_SHARED
        else:
            new_state = STATE_EXCLUSIVE
        if result.invalidations:
            self._apply_forced_invalidations(result.invalidations, home)
        if track:
            traffic.messages[_DATA] += 1
            traffic.hops += hop_table[home][core]
            traffic.bytes_transferred += _DATA_BYTES
        victim = cache.fill_miss_code(block, new_state, False)
        if victim >= 0:
            self._evict_notify(victim, cache_id, core, cache.victim_dirty)

    def _downgrade_owner(
        self, block: int, sharers, home: int, requester: int
    ) -> None:
        """On a read miss, an M/E owner must be downgraded to S."""
        for sharer in sharers:
            if sharer == requester:
                continue
            owner_cache = self._tracked[sharer]
            state = owner_cache.state_code_of(block)
            if state >= STATE_EXCLUSIVE:  # MODIFIED or EXCLUSIVE
                self._record(MessageType.FWD_GET, home, self._core_of[sharer])
                if state == STATE_MODIFIED:
                    self._record(
                        MessageType.PUT_MODIFIED, self._core_of[sharer], home
                    )
                owner_cache.set_state_code(block, STATE_SHARED)

    def _apply_coherence_invalidations(
        self, block: int, result: UpdateResult, home: int, requester: int
    ) -> None:
        """Invalidate the accessed block in every other reported sharer."""
        for sharer in result.coherence_invalidations:
            if sharer == requester:
                continue
            self._record(MessageType.INVALIDATE, home, self._core_of[sharer])
            self._tracked[sharer].invalidate(block)
            self._record(MessageType.INV_ACK, self._core_of[sharer], home)

    def _apply_forced_invalidations(
        self, invalidations: Sequence[Invalidation], home: int
    ) -> None:
        """Invalidate blocks whose directory entries were victimised.

        The directory has already dropped the entry; the private caches
        must drop their copies to preserve the inclusion property between
        the directory and the tracked caches.  Victim addresses arrive in
        slice-local form and are translated back to global block addresses
        before touching the caches.
        """
        for invalidation in invalidations:
            block = self.global_address(invalidation.address, home)
            for sharer in invalidation.caches:
                self._record(
                    MessageType.INVALIDATE, home, self._core_of[sharer]
                )
                self._tracked[sharer].invalidate(block)
                self._record(
                    MessageType.INV_ACK, self._core_of[sharer], home
                )

    def _evict_notify(
        self, victim: int, cache_id: int, core: int, victim_dirty: bool
    ) -> None:
        """Notify the victim's home directory of a private-cache eviction.

        ``core`` is the evicting cache's tile (the caller already has it);
        both miss handlers share this path so eviction traffic accounting
        cannot diverge between reads and writes.
        """
        num_slices = self._num_slices
        victim_home = victim % num_slices
        if self._track_traffic:
            traffic = self._traffic
            traffic.hops += self._hop_table[core][victim_home]
            if victim_dirty:
                traffic.messages[_PUT_MODIFIED] += 1
                traffic.bytes_transferred += _PUT_MODIFIED_BYTES
            else:
                traffic.messages[_PUT_SHARED] += 1
                traffic.bytes_transferred += _PUT_SHARED_BYTES
        self._directories[victim_home].remove_sharer(
            victim // num_slices, cache_id
        )

    # -- consistency checking (used by the tests) ---------------------------------
    def check_inclusion(self) -> List[str]:
        """Verify directory/cache consistency; returns a list of violations.

        Three invariants are checked for every block resident in a
        tracked cache:

        * **inclusion** — its home directory slice reports every cache
          that holds it (no silently untracked copies);
        * **exact sharers** — an organization that reports exact sharer
          sets (:attr:`Directory.reports_exact_sharers`) names exactly the
          caches holding it; inexact encodings may report supersets;
        * **SWMR** — at most one cache holds it in M or E, and an M/E copy
          excludes every other copy.

        A fourth runs over the directory side: an exact organization that
        lists its entries (:meth:`Directory.tracked_addresses`) must hold
        **no stale entry**, one for a block no tracked cache holds.

        The check is observation-only: its directory lookups count into
        scratch statistics that are discarded.
        """
        violations: List[str] = []
        holders: dict = {}
        for cache_id, cache in enumerate(self._tracked):
            for block in cache.resident_addresses():
                holders.setdefault(block, {})[cache_id] = cache.state_code_of(block)
        saved_stats = [directory.stats for directory in self._directories]
        try:
            for directory in self._directories:
                directory.reset_stats()
            for block, states in holders.items():
                directory = self._directories[self.home_slice(block)]
                reported = directory.lookup(self.slice_local_address(block)).sharers
                resident = set(states)
                untracked = resident - reported
                if untracked:
                    violations.append(
                        f"block {block:#x} resident in caches {sorted(untracked)} "
                        f"but not tracked by its home directory"
                    )
                elif directory.reports_exact_sharers and reported != resident:
                    violations.append(
                        f"block {block:#x} reported in caches {sorted(reported)} "
                        f"but resident in {sorted(resident)}"
                    )
                owners = sorted(
                    cache_id
                    for cache_id, state in states.items()
                    if state >= STATE_EXCLUSIVE
                )
                if owners and len(states) > 1:
                    violations.append(
                        f"block {block:#x} violates SWMR: M/E copies in caches "
                        f"{owners}, copies in {sorted(resident)}"
                    )
            for slice_id, directory in enumerate(self._directories):
                tracked = (
                    directory.tracked_addresses()
                    if directory.reports_exact_sharers
                    else None
                )
                for local in sorted(tracked or ()):
                    block = self.global_address(local, slice_id)
                    if block not in holders:
                        violations.append(
                            f"block {block:#x} tracked by its home directory "
                            f"but resident in no cache"
                        )
        finally:
            for directory, stats in zip(self._directories, saved_stats):
                directory._stats = stats
        return violations

    # -- helpers ---------------------------------------------------------------------
    def _record(self, message_type: MessageType, source: int, destination: int) -> None:
        if not self._track_traffic:
            return
        # Inlined TrafficStats.record: the counters are plain attributes
        # (the message dict is initialised with every type, so no .get
        # fallback is needed).  The per-miss request/data/eviction messages
        # inline this body directly at their call sites; this method serves
        # the invalidation and downgrade paths.
        traffic = self._traffic
        traffic.messages[message_type] += 1
        traffic.hops += self._hop_table[source][destination]
        traffic.bytes_transferred += MESSAGE_BYTES_BY_TYPE[message_type]
