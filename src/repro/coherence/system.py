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

* the **fast path** — the whole-chunk hit kernel plus the vectorized miss
  drain — when every directory slice is a plain Cuckoo directory with a
  full bit vector (it exposes ``drain_handles()``) and the chunk is long
  enough to pay for the tag-array snapshot (``_AUTO_SNAPSHOT_RATIO``);
* the **handler loop** — each access through the handlers — otherwise.

Internally the protocol operates on integer MESI codes
(:data:`repro.cache.cache.STATE_TO_CODE`); the :class:`~repro.cache.cache.
CoherenceState` enum appears only at the public cache API boundary.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
_BATCH_KERNEL_HITS = _obs_counter(
    "sim.batch.kernel_hits",
    help="hits retired vectorised by the whole-chunk kernel",
)
_BATCH_DRAINED = _obs_counter(
    "sim.batch.drained",
    help="accesses the whole-chunk kernel left to the vectorized drain",
)
_BATCH_ROLLBACKS = _obs_counter(
    "sim.batch.rollbacks",
    help="kernel-retired hits rolled back and re-injected (hazards)",
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
    help="accesses executed by the handler loop instead of the fast path",
)
_DRAIN_CLS_HITS = _obs_counter(
    "sim.drain.class_hits",
    help="drained accesses that were cache hits dragged in by conflicts",
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
    help="insertions that needed a displacement walk (scalar by design)",
)
_DRAIN_REINJECTED = _obs_counter(
    "sim.drain.reinjected",
    help="rolled-back kernel hits replayed through the drain",
)

#: The fast path runs a chunk only when ``total tracked frames <= ratio *
#: chunk length``: the kernel's per-chunk snapshot of every tracked tag
#: array is O(frames), so tiny chunks over huge caches (the Private-L2
#: sweeps) would pay more building the snapshot than the handler loop
#: costs.  The snapshot is a handful of numpy conversions (~35ns/frame)
#: while the handlers cost several microseconds per access, so the
#: break-even sits near two orders of magnitude; 64 keeps a safety margin
#: for small chunks (the warm-up ramp) without letting sweep-sized caches
#: through.
_AUTO_SNAPSHOT_RATIO = 64

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
        self._snapshot_frames = num_tracked * self._tracked[0].num_frames

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
        compute this rule (and :meth:`slice_local_address`) directly
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

        * **fast path** — the whole-chunk kernel: every tracked-cache
          lookup in the slice is resolved at once against the flat tag
          arrays, conflict-free hits are retired with vectorised stamp
          writes and bulk counter updates, and only the sparse remainder
          (misses, upgrades, and accesses dragged into their conflict
          groups) goes through the vectorized drain in trace order.  Taken
          when every slice exposes ``drain_handles()`` and the chunk pays
          for the tag-array snapshot.
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
        if (
            vector_config is not None
            and self._snapshot_frames <= _AUTO_SNAPSHOT_RATIO * count
        ):
            self._access_batch_vector(
                block_array, locals_array, homes_array,
                cache_id_array, write_array, count, vector_config,
            )
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

    def _access_batch_vector(
        self,
        blocks_a: np.ndarray,
        locals_a: np.ndarray,
        homes_a: np.ndarray,
        caches_a: np.ndarray,
        writes_a: np.ndarray,
        count: int,
        vector_config: tuple,
    ) -> None:
        """Whole-chunk kernel: vectorised hit retirement + vectorized drain.

        Three phases, bit-identical to running :meth:`access_scalar` per
        element (``tests/coherence/test_access_paths.py`` asserts this at
        every chunk shape, under tight tables too):

        1. **Classify.**  Every access is resolved against a snapshot of
           the flat tag/state arrays taken at chunk entry: vectorised
           set-index/tag derivation, a per-way tag compare across the whole
           chunk, and a state-code gather.  Read hits and write hits in M
           are *kernel-eligible* (no protocol side effects); write upgrades
           in S/E and misses must drain.
        2. **Partition into conflict groups.**  A draining access has
           side effects the snapshot cannot see, so eligibility propagates
           restrictions: every access to a *block* that drains anywhere in
           the chunk also drains (cross-cache invalidations/downgrades
           could change its hit outcome), and every hit in a (cache, set)
           that contains a draining access drains too (fills read and
           reorder that set's LRU stamps).  One propagation round is a
           fixpoint: demoted hits add no new blocks with side effects and
           no new sets with fills.
        3. **Retire + drain.**  Surviving hits are retired in bulk with
           *exact* precomputed stamps — every access advances its cache's
           clock by exactly one, so stamp(i) = clock-at-entry + rank of i
           among that cache's chunk accesses, independent of interleaving.
           The remainder drains through the MESI protocol in trace order
           (:meth:`_drain_batch_vector`).  Forced invalidations are the one
           event the partition cannot predict (cut-off cuckoo walks victimise
           arbitrary blocks); the drain detects retired-but-now-stale kernel
           hits, rolls them back exactly and re-injects them as scalar
           accesses.
        """
        tracked = self._tracked
        num_tracked = len(tracked)
        first = tracked[0]
        num_sets = first.num_sets
        num_ways = first.num_ways
        frames_per = num_sets * num_ways

        with _TRACER.span("hit_kernel"):
            sets_a = blocks_a % num_sets
            frame_base = caches_a * frames_per + sets_a * num_ways
            flat_tags = np.array(
                [cache._tags for cache in tracked], dtype=np.int64
            ).ravel()
            flat_states = np.array(
                [cache._states for cache in tracked], dtype=np.int64
            ).ravel()
            frames = np.full(count, -1, dtype=np.int64)
            for way in range(num_ways):
                candidate = frame_base + way
                np.copyto(frames, candidate, where=(flat_tags[candidate] == blocks_a))
            found = frames >= 0
            state_snap = np.where(found, flat_states[np.where(found, frames, 0)], 0)
            eligible = found & (~writes_a | (state_snap == STATE_MODIFIED))
            drain_mask = ~eligible
            if drain_mask.any() and eligible.any():
                # Membership via scatter/gather tables: both key spaces
                # are dense integer ranges, so a boolean table beats the
                # sort-based unique/isin pair.  Block ids are only
                # bounded by the address space, so huge outliers fall
                # back to isin.
                max_block = int(blocks_a.max())
                if max_block < (1 << 22):
                    block_table = np.zeros(max_block + 1, dtype=bool)
                    block_table[blocks_a[drain_mask]] = True
                    drain_mask |= block_table[blocks_a]
                else:
                    conflict_blocks = np.unique(blocks_a[drain_mask])
                    drain_mask |= np.isin(blocks_a, conflict_blocks)
                set_keys = caches_a * num_sets + sets_a
                set_table = np.zeros(num_tracked * num_sets, dtype=bool)
                set_table[set_keys[drain_mask]] = True
                drain_mask |= set_table[set_keys]

            # Exact per-access stamps (phase 3 above), computed for the
            # whole chunk: group accesses by cache and rank within group.
            clock0 = np.fromiter(
                (cache._clock for cache in tracked),
                dtype=np.int64,
                count=num_tracked,
            )
            cache_counts = np.bincount(caches_a, minlength=num_tracked)
            order = np.argsort(caches_a, kind="stable")
            sorted_caches = caches_a[order]
            group_starts = np.concatenate(([0], np.cumsum(cache_counts)[:-1]))
            ranks = np.arange(count, dtype=np.int64) - np.repeat(
                group_starts, cache_counts
            )
            stamps_a = np.empty(count, dtype=np.int64)
            stamps_a[order] = clock0[sorted_caches] + ranks + 1

            kernel_idx = np.flatnonzero(~drain_mask)
            kernel_count = int(kernel_idx.size)
            if kernel_count:
                kern_cache = caches_a[kernel_idx]
                kern_frame = frames[kernel_idx] - kern_cache * frames_per
                kern_stamp = stamps_a[kernel_idx]
                kern_old = np.empty(kernel_count, dtype=np.int64)
                for cache_id in np.unique(kern_cache).tolist():
                    member = kern_cache == cache_id
                    kern_old[member] = tracked[cache_id].touch_batch(
                        kern_frame[member].tolist(), kern_stamp[member].tolist()
                    )
                kernel_state: Optional[Tuple[np.ndarray, ...]] = (
                    kernel_idx,
                    kern_cache,
                    kern_frame,
                    blocks_a[kernel_idx],
                    sets_a[kernel_idx],
                    writes_a[kernel_idx],
                    kern_stamp,
                    kern_old,
                    np.ones(kernel_count, dtype=bool),
                )
            else:
                kernel_state = None
        _BATCH_KERNEL_HITS.add(kernel_count)

        drain_idx = np.flatnonzero(drain_mask)
        drained = int(drain_idx.size)
        _BATCH_DRAINED.add(drained)
        if drained:
            with _TRACER.span("drain_vector"):
                self._drain_batch_vector(
                    drain_idx, blocks_a, locals_a, homes_a, caches_a,
                    writes_a, sets_a, stamps_a, kernel_state, vector_config,
                )
        # Settle the per-cache clocks once for the whole chunk (stamps were
        # written as precomputed values, never via clock increments).
        counts_list = cache_counts.tolist()
        for cache_id in range(num_tracked):
            if counts_list[cache_id]:
                tracked[cache_id].advance_clock(counts_list[cache_id])

    def _drain_vector_config(self) -> Optional[tuple]:
        """Support decision for the fast path, resolved once.

        Returns ``None`` when any slice lacks the inlined-directory drain
        handles (non-cuckoo organizations, stash variants, rich sharer
        encodings), else a one-element tuple holding the hash family
        shared by every slice — or ``None`` inside the tuple when the
        slices hash differently and the pre-pass must group by home.
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
        drain_idx: np.ndarray,
        blocks_a: np.ndarray,
        locals_a: np.ndarray,
        homes_a: np.ndarray,
        caches_a: np.ndarray,
        writes_a: np.ndarray,
        sets_a: np.ndarray,
        stamps_a: np.ndarray,
        kernel_state: Optional[Tuple[np.ndarray, ...]],
        vector_config: tuple,
    ) -> None:
        """Vectorized drain pipeline (DESIGN.md "The vectorized drain pipeline").

        Bit-identical to running the handlers (:meth:`_access_block`) per
        drained access, restructured around a numpy pre-pass so the
        per-access protocol loop touches no hash function, no hop table,
        no bank model and almost no traffic or statistics bookkeeping:

        * **Batch hashing.**  Every drained block's slice-local address is
          hashed across all directory ways in one vectorized call
          (``HashFamily.batch_indices``) — one call for the whole chunk
          when every slice shares a hash family, else one per home group.
          The insert path then reads precomputed candidate rows instead
          of probing the per-table indices cache.
        * **All-miss accounting.**  Traffic (request + response hops,
          message counts, bytes), per-home directory lookups and per-cache
          miss counts are computed vectorized under the assumption that
          every drained access misses — the common case by construction,
          since the kernel only demotes conflicted hits.  The hit branch
          then *corrects* the assumption (one subtraction per hit) instead
          of every miss paying per-access accounting.
        * **Bank decoupling.**  The shared-L2 bank model reads nothing
          from the protocol and feeds nothing back into it, so bank
          updates are recorded as ``(block, home, write)`` events in trace
          order and replayed in a dedicated pass after the protocol loop.

        Trace order is preserved throughout — conflicting accesses
        (same block, same (cache, set), same directory slot) simply
        execute in their original relative order, which makes the
        reordering-safety argument trivial.  Kernel hits rolled back by
        forced invalidations are rare by construction and replay
        through the scalar ``process_one`` closure (full live
        accounting, live hashing and hop lookups) at their exact trace
        position.  Displacement walks, forced invalidations and write
        upgrades with remote sharers stay on the scalar helper paths by
        construction; stash variants and rich sharer encodings never
        reach this method (:meth:`_drain_vector_config`).
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
        locations = [cache._location for cache in tracked]
        tags_of = [cache._tags for cache in tracked]
        states_of = [cache._states for cache in tracked]
        dirty_of = [cache._dirty for cache in tracked]
        stamps_of = [cache._stamps for cache in tracked]
        counts_of = [cache._set_counts for cache in tracked]
        cache_arrs = list(
            zip(locations, tags_of, states_of, dirty_of, stamps_of, counts_of)
        )
        locations_get = [location.get for location in locations]
        hit_delta = [0] * num_tracked
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
        d_ic = [table._indices_cache for table in d_table]
        ic_limit = _INDICES_CACHE_LIMIT
        d_loc_get = [locator.get for locator in d_loc]
        # Shadowed round-robin insertion cursor, written back at flush
        # (resynced after a displacement walk, which rotates it inside
        # the table).
        d_sw = [table._start_way for table in d_table]
        # Two counters are derived at flush instead of tracked in-loop:
        # sharer additions equal lookup hits (every drain path that finds
        # an entry adds a sharer bit), and the table-size delta equals
        # vacant-slot inserts minus entry removals (walks maintain
        # ``table._size`` themselves via ``insert_absent``).
        a_lh = [0] * num_homes
        a_i1 = [0] * num_homes
        a_sr = [0] * num_homes
        a_er = [0] * num_homes
        a_io = [0] * num_homes
        # Live traffic counters: only the unpredictable events (evictions,
        # invalidations, owner downgrades) and re-injected accesses add to
        # these in-loop; the all-miss baseline below covers the rest.
        n_getS = n_getM = n_data = n_inv = n_ack = 0
        n_putM = n_putS = n_fwd = 0
        # Per-class retirement counters (sim.drain.*): in-branch for the
        # cheap-to-count classes, derived at flush for the rest.
        n_rdh = n_walk = n_reinj = 0
        rh = cw = s_up = 0
        hops_corr = 0
        p1_hit = p1_up = p1_rm = p1_wm = 0

        # -- vectorized pre-pass -------------------------------------------
        count = int(drain_idx.size)
        d_local_a = locals_a[drain_idx]
        d_home_a = homes_a[drain_idx]
        d_cache_a = caches_a[drain_idx]
        d_write_a = writes_a[drain_idx]
        d_sets_a = sets_a[drain_idx]
        dp = drain_idx.tolist()
        db = blocks_a[drain_idx].tolist()
        dl = d_local_a.tolist()
        dh = d_home_a.tolist()
        dc = d_cache_a.tolist()
        dw = d_write_a.tolist()
        ds = d_sets_a.tolist()
        dbase = (d_sets_a * num_ways).tolist()
        dst = stamps_a[drain_idx].tolist()
        # (1) Batch-hash the drained slice-local addresses across all ways.
        if shared_family is not None:
            cand_rows: List = shared_family.batch_indices(d_local_a)
        else:
            cand_rows = [None] * count
            order = np.argsort(d_home_a, kind="stable")
            sorted_homes = d_home_a[order]
            boundaries = np.flatnonzero(np.diff(sorted_homes)) + 1
            for group in np.split(order, boundaries):
                home_g = int(d_home_a[group[0]])
                rows = directories[home_g].table.hash_family.batch_indices(
                    d_local_a[group]
                )
                for offset, member in enumerate(group.tolist()):
                    cand_rows[member] = rows[offset]
        # (2) Gather request/response hop counts for the whole chunk.
        hop_matrix = self._hop_matrix
        d_core_a = (d_cache_a >> 1) if self._l1_tracked else d_cache_a
        h_req_a = hop_matrix[d_core_a, d_home_a]
        h_rsp_a = hop_matrix[d_home_a, d_core_a]
        # One fused request+response hop column: the hit corrections always
        # need the sum; the lone S->M case recomputes its response hop.
        h_sum = (h_req_a + h_rsp_a).tolist()
        # (3) All-miss baselines, corrected per hit in the loop below.
        writes_total = int(np.count_nonzero(d_write_a))
        reads_total = count - writes_total
        if track:
            hops_base = int(h_req_a.sum()) + int(h_rsp_a.sum())
        a_lk = np.bincount(d_home_a, minlength=num_homes).tolist()
        miss_delta = np.bincount(d_cache_a, minlength=num_tracked).tolist()
        # (4) Bank events accumulate per home in trace order for the replay
        # pass — the banks are independent state machines, so each home's
        # event list replays with its bank's arrays bound once.  Events are
        # packed as ``block << 1 | is_write`` to keep the per-miss record a
        # plain int instead of a tuple allocation.
        if use_banks:
            ev_by_home: List[List[int]] = [[] for _ in banks]
            ev_app = [events.append for events in ev_by_home]

        if kernel_state is not None:
            (
                kern_pos, kern_cache, kern_frame, kern_block, kern_set,
                kern_write, kern_stamp, kern_old, kern_alive,
            ) = kernel_state
        else:
            kern_alive = None
        pos = 0
        rollback_total = 0
        pending: List[tuple] = []

        def rollback(mask: np.ndarray) -> None:
            # Undo retired kernel hits made stale by an unpredictable event
            # and re-inject them (sorted by trace position) for replay.
            nonlocal rollback_total
            for j in np.flatnonzero(mask).tolist():
                rollback_total += 1
                kern_alive[j] = False
                r_cache = int(kern_cache[j])
                r_frame = int(kern_frame[j])
                r_block = int(kern_block[j])
                r_pos = int(kern_pos[j])
                hit_delta[r_cache] -= 1
                siblings = (
                    kern_alive & (kern_cache == r_cache) & (kern_frame == r_frame)
                )
                if siblings.any():
                    stamps_of[r_cache][r_frame] = int(kern_stamp[siblings].max())
                else:
                    family = np.flatnonzero(
                        (kern_cache == r_cache) & (kern_frame == r_frame)
                    )
                    earliest = family[np.argmin(kern_pos[family])]
                    stamps_of[r_cache][r_frame] = int(kern_old[earliest])
                insort(
                    pending,
                    (
                        r_pos,
                        r_block,
                        r_block // num_slices,
                        r_block % num_slices,
                        r_cache,
                        bool(kern_write[j]),
                        int(kern_set[j]),
                        int(kern_stamp[j]),
                    ),
                )

        record = self._record

        def apply_forced(
            invalidations: Sequence[Invalidation], victim_home: int
        ) -> None:
            for invalidation in invalidations:
                victim_block = invalidation.address * num_slices + victim_home
                for sharer in invalidation.caches:
                    record(_INVALIDATE, victim_home, core_of[sharer])
                    if kern_alive is not None:
                        mask = (
                            kern_alive
                            & (kern_cache == sharer)
                            & (kern_block == victim_block)
                            & (kern_pos > pos)
                        )
                        if mask.any():
                            rollback(mask)
                    tracked[sharer].invalidate(victim_block)
                    record(_INV_ACK, core_of[sharer], victim_home)

        def insert_new(home: int, local_addr: int, mask: int, indices) -> None:
            # Vacant-candidate placement with precomputed candidate rows
            # (``indices`` is None only for re-injected accesses).
            pool = d_pool[home]
            if pool:
                sharer_set = pool.pop()
            else:
                sharer_set = bitvec_cls(dir_caches)
            sharer_set._mask = mask
            if indices is None:
                indices = d_ic[home].get(local_addr)
                if indices is None:
                    indices = d_table[home]._indices_of(local_addr)
            else:
                # Seed the table's per-key indices cache: a later
                # displacement walk that evicts this key re-hashes it
                # scalar unless the batch-computed row is cached.
                ic = d_ic[home]
                if len(ic) < ic_limit:
                    ic[local_addr] = indices
            keys_h = d_keys[home]
            for way in d_wo[home][d_sw[home]]:
                idx = indices[way]
                if keys_h[way][idx] == -1:
                    keys_h[way][idx] = local_addr
                    d_val[home][way][idx] = sharer_set
                    d_loc[home][local_addr] = (way, idx)
                    d_sw[home] = way
                    a_i1[home] += 1
                    return
            insert_walk(home, local_addr, sharer_set, indices)

        def insert_walk(home: int, local_addr: int, sharer_set, indices) -> None:
            # Displacement walk: insert_absent plus direct stats; resync
            # the start-way shadow the walk rotated inside the table.
            nonlocal n_walk
            n_walk += 1
            table = d_table[home]
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
                invalidation = Invalidation(
                    address=result.evicted_key,
                    caches=result.evicted_value.sharers(),
                )
                stats.forced_invalidations += 1
                stats.forced_invalidation_messages += invalidation.num_messages
                apply_forced((invalidation,), home)

        def acquire_excl(
            local_addr: int, home: int, block: int, cache_id: int,
            reinjected: bool, indices,
        ) -> None:
            # Inlined CuckooDirectory.acquire_exclusive, *without* the
            # lookup count: the all-miss baseline (or the re-injected
            # caller) already accounts the lookup.
            nonlocal hops_acc, bytes_acc, n_inv, n_ack
            wbit = 1 << cache_id
            loc = d_loc[home].get(local_addr)
            if loc is None:
                insert_new(home, local_addr, wbit, indices)
                return
            a_lh[home] += 1
            way, idx = loc
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
                if reinjected and kern_alive is not None:
                    stale = (
                        kern_alive
                        & (kern_cache == sharer)
                        & (kern_block == block)
                        & (kern_pos > pos)
                    )
                    if stale.any():
                        rollback(stale)
                tracked[sharer].invalidate(block)

        def process_one(entry: tuple) -> None:
            # Scalar replay of one re-injected access (full live
            # accounting — re-injections are outside the all-miss
            # baselines), the exact protocol of the handlers.
            nonlocal pos, hops_acc, bytes_acc, n_getS, n_getM, n_data
            nonlocal n_fwd, n_putM, n_putS
            nonlocal n_rdh, n_reinj, p1_hit, p1_up, p1_rm, p1_wm
            n_reinj += 1
            (
                pos, block, local_addr, home, cache_id,
                is_write, set_index, stamp,
            ) = entry
            location, tags, states, dirty, stamps, counts = cache_arrs[cache_id]
            frame = location.get(block)
            if frame is not None:
                hit_delta[cache_id] += 1
                stamps[frame] = stamp
                if is_write:
                    dirty[frame] = True
                    state = states[frame]
                    if state == state_m:
                        p1_hit += 1
                    elif state == state_e:
                        p1_hit += 1
                        states[frame] = state_m
                    else:
                        p1_up += 1
                        if track:
                            n_getM += 1
                            hops_acc += hop_table[core_of[cache_id]][home]
                            bytes_acc += getm_bytes
                        a_lk[home] += 1
                        acquire_excl(
                            local_addr, home, block, cache_id, True, None
                        )
                        states[frame] = state_m
                else:
                    p1_hit += 1
                return
            miss_delta[cache_id] += 1
            if use_banks:
                ev_app[home](block << 1 | is_write)
            core = core_of[cache_id]
            hop_row = hop_table[core]
            if is_write:
                p1_wm += 1
                if track:
                    n_getM += 1
                    hops_acc += hop_row[home]
                    bytes_acc += getm_bytes
                a_lk[home] += 1
                acquire_excl(local_addr, home, block, cache_id, True, None)
                new_state = state_m
                fill_dirty = True
            else:
                p1_rm += 1
                if track:
                    n_getS += 1
                    hops_acc += hop_row[home]
                    bytes_acc += gets_bytes
                a_lk[home] += 1
                loc = d_loc[home].get(local_addr)
                if loc is not None:
                    n_rdh += 1
                    a_lh[home] += 1
                    way, idx = loc
                    sharer_set = d_val[home][way][idx]
                    prior = sharer_set._mask
                    wbit = 1 << cache_id
                    sharer_set._mask = prior | wbit
                    remaining = prior & ~wbit
                    while remaining:
                        low = remaining & -remaining
                        remaining -= low
                        sharer = low.bit_length() - 1
                        owner_frame = locations[sharer].get(block)
                        if owner_frame is None:
                            continue
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
                    insert_new(home, local_addr, 1 << cache_id, None)
                    new_state = state_e
                fill_dirty = False
            if track:
                n_data += 1
                hops_acc += hop_table[home][core]
                bytes_acc += data_bytes
            if kern_alive is not None:
                mask = (
                    kern_alive
                    & (kern_cache == cache_id)
                    & (kern_set == set_index)
                    & (kern_pos > pos)
                )
                if mask.any():
                    rollback(mask)
            base = set_index * num_ways
            if counts[set_index] < num_ways:
                frame = tags.index(-1, base, base + num_ways)
                counts[set_index] += 1
            else:
                if num_ways == 2:
                    frame = (
                        base if stamps[base] <= stamps[base + 1] else base + 1
                    )
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
                    hops_acc += hop_row[victim_home]
                    if victim_dirty:
                        n_putM += 1
                        bytes_acc += putm_bytes
                    else:
                        n_putS += 1
                        bytes_acc += puts_bytes
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

        # -- the protocol loop (trace order; re-injections spliced in) -----
        # Direct unpacking in the for header keeps the result tuple's
        # refcount at one so zip can recycle it instead of allocating a
        # fresh 11-tuple per access.
        for (
            pos, block, local_addr, home, cache_id, is_write,
            set_index, base, stamp, hsum, indices,
        ) in zip(dp, db, dl, dh, dc, dw, ds, dbase, dst, h_sum, cand_rows):
            if pending:
                cur = pos
                while pending and pending[0][0] < cur:
                    process_one(pending.pop(0))
                pos = cur
            frame = locations_get[cache_id](block)
            if frame is None:
                # Miss (the common case): queue the bank event, run the
                # directory protocol, fill inline.  Traffic and lookup
                # counts are covered by the all-miss baseline.
                if use_banks:
                    ev_app[home](block << 1 | is_write)
                if is_write:
                    # Inlined acquire_excl (the two common cases: absent
                    # entry with a vacant candidate, or already-present
                    # sharer sets); conflicts fall back to the closure.
                    wbit = 1 << cache_id
                    loc = d_loc_get[home](local_addr)
                    if loc is None:
                        pool = d_pool[home]
                        if pool:
                            sharer_set = pool.pop()
                        else:
                            sharer_set = bitvec_cls(dir_caches)
                        sharer_set._mask = wbit
                        ic = d_ic[home]
                        if len(ic) < ic_limit:
                            ic[local_addr] = indices
                        keys_h = d_keys[home]
                        for way in d_wo[home][d_sw[home]]:
                            idx = indices[way]
                            if keys_h[way][idx] == -1:
                                keys_h[way][idx] = local_addr
                                d_val[home][way][idx] = sharer_set
                                d_loc[home][local_addr] = (way, idx)
                                d_sw[home] = way
                                a_i1[home] += 1
                                break
                        else:
                            insert_walk(home, local_addr, sharer_set, indices)
                    else:
                        a_lh[home] += 1
                        way, idx = loc
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
                        pool = d_pool[home]
                        if pool:
                            sharer_set = pool.pop()
                        else:
                            sharer_set = bitvec_cls(dir_caches)
                        sharer_set._mask = 1 << cache_id
                        ic = d_ic[home]
                        if len(ic) < ic_limit:
                            ic[local_addr] = indices
                        keys_h = d_keys[home]
                        for way in d_wo[home][d_sw[home]]:
                            idx = indices[way]
                            if keys_h[way][idx] == -1:
                                keys_h[way][idx] = local_addr
                                d_val[home][way][idx] = sharer_set
                                d_loc[home][local_addr] = (way, idx)
                                d_sw[home] = way
                                a_i1[home] += 1
                                break
                        else:
                            insert_walk(home, local_addr, sharer_set, indices)
                        new_state = state_e
                    fill_dirty = False

                # Inline fill: the exact-stamp twin of fill_miss_code.
                location, tags, states, dirty, stamps, counts = cache_arrs[
                    cache_id
                ]
                if counts[set_index] < num_ways:
                    frame = tags.index(-1, base, base + num_ways)
                    counts[set_index] += 1
                else:
                    if num_ways == 2:
                        frame = (
                            base
                            if stamps[base] <= stamps[base + 1]
                            else base + 1
                        )
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
                continue

            # Hit (dragged in by a conflict): stamp recency, correct the
            # all-miss baselines, run any write-upgrade protocol.
            hit_delta[cache_id] += 1
            miss_delta[cache_id] -= 1
            stamps_of[cache_id][frame] = stamp
            if is_write:
                dirty_of[cache_id][frame] = True
                states = states_of[cache_id]
                state = states[frame]
                if state == state_m:
                    cw += 1
                    a_lk[home] -= 1
                    hops_corr += hsum
                elif state == state_e:
                    # Silent E -> M upgrade; no directory traffic.
                    cw += 1
                    a_lk[home] -= 1
                    hops_corr += hsum
                    states[frame] = state_m
                else:
                    # S -> M: GET_M is sent (the baseline request hop
                    # stands) but no DATA comes back.
                    s_up += 1
                    hops_corr += hop_table[home][core_of[cache_id]]
                    acquire_excl(
                        local_addr, home, block, cache_id, False, indices
                    )
                    states[frame] = state_m
            else:
                rh += 1
                a_lk[home] -= 1
                hops_corr += hsum
        while pending:
            process_one(pending.pop(0))

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
        for cache_id in range(num_tracked):
            if hit_delta[cache_id] or miss_delta[cache_id] or evict_delta[cache_id]:
                stats = tracked[cache_id]._stats
                stats.hits += hit_delta[cache_id]
                stats.misses += miss_delta[cache_id]
                stats.evictions += evict_delta[cache_id]
                stats.dirty_evictions += dirty_evict_delta[cache_id]
        for home in range(num_homes):
            table = d_table[home]
            if table._start_way != d_sw[home]:
                table._start_way = d_sw[home]
            lk = a_lk[home]
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
        if track:
            n_getS += reads_total - rh
            n_getM += writes_total - cw
            n_data += count - rh - cw - s_up
            hops_acc += hops_base - hops_corr
            bytes_acc += (
                (reads_total - rh) * gets_bytes
                + (writes_total - cw) * getm_bytes
                + (count - rh - cw - s_up) * data_bytes
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
        if rollback_total:
            _BATCH_ROLLBACKS.add(rollback_total)
        _DRAIN_VECTOR.add(count)
        _DRAIN_CLS_HITS.add(rh + cw + p1_hit)
        _DRAIN_CLS_UPGRADES.add(s_up + p1_up)
        _DRAIN_CLS_READ_DIRHIT.add(n_rdh)
        _DRAIN_CLS_READ_INSERT.add(reads_total - rh + p1_rm - n_rdh)
        _DRAIN_CLS_WRITE_MISS.add(writes_total - cw - s_up + p1_wm)
        _DRAIN_CLS_WALKS.add(n_walk)
        if n_reinj:
            _DRAIN_REINJECTED.add(n_reinj)

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
