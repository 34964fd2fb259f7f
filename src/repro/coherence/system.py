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
streams can be replayed against the Sparse, Skewed and Cuckoo
organizations.

Execution
---------
The simulator defines the protocol once: the compiled drain (``drain`` in
``repro/core/_kernels.c``, built by :mod:`repro.core.native`).
:meth:`TiledCMP.access_batch` runs a slice of a trace chunk in two compiled
calls: the page mapper's ``translate`` kernel checks every core and address
of the slice, then maps the raw fields through the page table into the
drain's trace (block, slice-local address, home, tracked cache, write flag),
and the drain runs every access in trace order; :meth:`TiledCMP.access` is
a one-access batch.  The drain owns no state: every cache, shared-L2 bank,
directory table and stash keeps its state, statistics included, in typed
buffers that the Python API and the drain share, and the drain takes them
once, at construction (:meth:`TiledCMP._prepare_drain`), hashing every key
itself.
It runs every directory slice the simulator builds: a Cuckoo, Sparse or
Skewed table (:class:`~repro.directories.table.TableDirectory`), the Cuckoo
table with an overflow stash included.  A system it cannot run is refused
at construction, with :class:`ValueError`: more than 64 tracked caches (a
sharer mask is 64 bits), slices whose tables differ in way count, or a
slice that is not table-backed.  The handler loop the drain is tested
against lives in ``tests/coherence/reference_protocol.py``.

The protocol operates on integer MESI codes (:data:`repro.cache.cache.
STATE_TO_CODE`); the :class:`~repro.cache.cache.CoherenceState` enum appears
only at the public cache API boundary.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cache.cache import STATE_EXCLUSIVE, SetAssociativeCache
from repro.config import CacheLevel, SystemConfig
from repro.coherence.interconnect import MeshInterconnect
from repro.coherence.messages import TrafficStats
from repro.coherence.paging import PageMapper
from repro.core import native
from repro.directories.base import Directory, DirectoryStats
from repro.directories.table import TableDirectory
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
    help="accesses executed by the compiled drain",
)
# Drain telemetry (DESIGN.md "The compiled kernels"): the accesses the
# drain resolved plus its per-class counts, all bumped once per chunk from
# the counts the drain returns.
_DRAIN_VECTOR = _obs_counter(
    "sim.drain.vector_resolved",
    help="accesses resolved by the compiled drain",
)
# The drain's per-class counters, in the order it returns them.
_DRAIN_CLASSES = tuple(
    _obs_counter(f"sim.drain.class_{name}", help=text)
    for name, text in (
        ("hits", "drained accesses that were cache hits needing no directory"),
        ("upgrades", "write-hit S->M upgrades resolved in the drain"),
        ("read_dirhit", "read misses that hit an existing directory entry"),
        ("read_insert", "read misses that allocated a fresh directory entry"),
        ("write_miss", "write misses resolved in the drain"),
        ("walks", "insertions that found every candidate full: a displacement "
         "walk (cuckoo) or an LRU eviction (sparse, skewed)"),
    )
)


def _hit_rate(caches: Sequence[SetAssociativeCache]) -> float:
    """Hits over accesses of ``caches``, summed from their counts rows."""
    hits = misses = 0
    for cache in caches:
        row = cache.stats._row  # hits, misses, ... (repro.cache.cache)
        hits += row[0]
        misses += row[1]
    return hits / (hits + misses) if hits + misses else 0.0


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
        if config.num_tracked_caches > 64:
            raise ValueError(
                f"the compiled drain tracks at most 64 caches (a sharer mask is "
                f"64 bits); this system tracks {config.num_tracked_caches}"
            )

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
        # A slice's capacity is fixed, so occupancy samples read only its
        # live-entry count (_occupancies).
        self._capacities = [directory.capacity for directory in self._directories]
        self._traffic = TrafficStats()
        self._accesses = 0
        self._l1_tracked = config.tracked_level is CacheLevel.L1
        self._num_cores = num_cores
        self._num_slices = len(self._directories)
        # PageMapper.translate_trace's geometry: a tracked L1 is the core's
        # instruction cache (2 * core) or its data cache (2 * core + 1).
        self._geometry = (
            self._offset_bits, self._num_slices, num_cores, int(self._l1_tracked)
        )
        self._prepare_drain()

    def _prepare_drain(self) -> None:
        """Take the compiled drain's machine once, or refuse the system.

        The machine (``machine`` in ``_kernels.c``) holds every cache's,
        bank's and slice's typed buffers (their ``drain_state()``), the
        traffic row and the all-pairs hop table (cores² entries) for the
        life of the system: O(caches + slices), with no hashing and no
        per-slot work.  A slice the drain cannot run raises
        :class:`ValueError` (module docstring; ``__init__`` has already
        refused more than 64 tracked caches).
        """
        directories, banks = self._directories, self._l2_banks
        for slice_id, directory in enumerate(directories):
            if not isinstance(directory, TableDirectory):
                raise ValueError(
                    f"directory slice {slice_id} ({type(directory).__name__}) is not "
                    "table-backed; the compiled drain runs only table directories"
                )
        ways = sorted({directory.num_ways for directory in directories})
        if len(ways) > 1:
            raise ValueError(
                f"the compiled drain needs one way count in every slice; these "
                f"slices' tables have {ways} ways"
            )
        self._hops = MeshInterconnect(self._num_cores).hop_table()
        self._machine = native.KERNELS.machine(
            tuple(cache.drain_state() for cache in self._tracked),
            None if banks is None else tuple(bank.drain_state() for bank in banks),
            tuple(directory.drain_state() for directory in directories),
            self._hops,
            self._traffic._row if self._track_traffic else None,
            int(self._l1_tracked),
        )

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

        NOTE: the compiled kernels (``repro/core/_kernels.c``) compute
        this rule against the slice count themselves: ``translate`` (behind
        ``access_batch``) derives every access's home and
        :meth:`slice_local_address`, and the drain :meth:`global_address`
        for forced-invalidation victims and the home of an evicted block,
        by shift and mask (its machine refuses a slice count that is not a
        power of two, as :class:`SystemConfig` does); change the
        interleaving everywhere together.
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
        """Statistics summed across all directory slices."""
        return DirectoryStats.total(directory.stats for directory in self._directories)

    def _occupancies(self) -> List[float]:
        """Every slice's :meth:`Directory.occupancy`, in slice order."""
        return [
            directory.entry_count() / capacity
            for directory, capacity in zip(self._directories, self._capacities)
        ]

    def sample_occupancy(self) -> float:
        """Sample every slice's occupancy; returns the mean of this sample.

        Each slice records its value as :meth:`Directory.sample_occupancy`
        does, and the mean is the same left-to-right sum over the slices.
        """
        values = self._occupancies()
        for directory, value in zip(self._directories, values):
            directory.stats.record_occupancy(value)
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
        return {
            "forced_invalidations": stats.forced_invalidations,
            "insertions": stats.insertions,
            "insertion_attempts": stats.insertion_attempts,
            "stash_occupancy": sum(
                directory.stash_occupancy for directory in self._directories
            ),
            "tracked_hit_rate": _hit_rate(self._tracked),
            "shared_l2_hit_rate": _hit_rate(self._l2_banks or ()),
            "total_messages": traffic.total_messages,
            "traffic_bytes": traffic.bytes_transferred,
            "traffic_hops": traffic.hops,
        }

    def bank_occupancies(self) -> "list":
        """Per-slice occupancy fractions, in slice order (non-mutating)."""
        return self._occupancies()

    def attempt_chain_bins(self, bins: int) -> "list":
        """Insertion-attempt histogram folded into chain-length bins.

        Bin ``i`` counts insertions that took ``i + 1`` attempts; the last
        bin absorbs everything at or beyond ``bins`` attempts (Figure 11's
        "5+" bucket for the default five bins).
        """
        counts = [0] * bins
        for attempts, count in enumerate(self.directory_stats().histogram):
            counts[min(max(attempts, 1), bins) - 1] += count
        return counts

    def reset_stats(self) -> None:
        """Clear directory, cache and traffic statistics (end of warm-up).

        In place: the drain keeps counting into the same rows."""
        for directory in self._directories:
            directory.reset_stats()
        for cache in self._tracked:
            cache.reset_stats()
        if self._l2_banks is not None:
            for bank in self._l2_banks:
                bank.reset_stats()
        self._traffic.clear()

    # -- the access path ---------------------------------------------------------
    def access(self, access: MemoryAccess) -> None:
        """Execute one memory access: a one-access :meth:`access_batch`."""
        self.access_batch(
            (access.core,), (access.address,), (access.is_write,),
            (access.is_instruction,),
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
        generators) or plain sequences.  The page mapper's compiled
        ``translate`` kernel maps the slice's raw fields into the drain's
        five-row trace (:meth:`PageMapper.translate_trace`), after checking
        every core (:class:`IndexError`) and address (:class:`ValueError`),
        so a malformed slice fails before any of it executes.  Then the
        compiled drain runs the slice in one call, in trace order, over the
        machine :meth:`_prepare_drain` took, counting every statistic in
        place; it returns the slice's accesses per class, for telemetry.
        A slice reaching outside the chunk raises :class:`ValueError` before
        anything is translated.
        """
        if stop is None:
            stop = len(cores)
        if start < 0 or stop > len(cores):
            raise ValueError(
                f"slice [{start}, {stop}) reaches outside a chunk of {len(cores)} accesses"
            )
        count = stop - start
        if count <= 0:
            return 0
        with _TRACER.span("translate"):
            trace = self._page_mapper.translate_trace(
                np.ascontiguousarray(np.asarray(cores)[start:stop], dtype=np.int64),
                np.ascontiguousarray(np.asarray(addresses)[start:stop], dtype=np.int64),
                np.ascontiguousarray(np.asarray(writes)[start:stop], dtype=np.bool_),
                np.ascontiguousarray(np.asarray(instrs)[start:stop], dtype=np.bool_),
                self._geometry,
            )
        _BATCH_CHUNKS.inc()
        _BATCH_ACCESSES.add(count)
        with _TRACER.span("drain_vector"):
            for counter, classified in zip(
                _DRAIN_CLASSES, native.KERNELS.drain(self._machine, trace)
            ):
                counter.add(classified)
        self._accesses += count
        _BATCH_DRAINED.add(count)
        _DRAIN_VECTOR.add(count)
        return count

    # -- consistency checking (used by the tests) ---------------------------------
    def check_inclusion(self) -> List[str]:
        """Verify directory/cache consistency; returns a list of violations.

        Three invariants are checked for every block resident in a
        tracked cache:

        * **inclusion** — its home directory slice reports every cache
          that holds it (no silently untracked copies);
        * **exact sharers** — the home names exactly the caches holding it;
        * **SWMR** — at most one cache holds it in M or E, and an M/E copy
          excludes every other copy.

        Three more run over each slice's entries
        (:meth:`Directory.tracked_addresses`):

        * **no stale entry** — one for a block no tracked cache holds;
        * **one entry per block** — no address is listed twice, as when
          a stash and the table both hold it;
        * **a true count** — :meth:`Directory.entry_count` equals the
          number of entries listed.

        The check is observation-only: the statistics its directory
        lookups count are put back afterwards.
        """
        violations: List[str] = []
        holders: dict = {}
        for cache_id, cache in enumerate(self._tracked):
            for block in cache.resident_addresses():
                holders.setdefault(block, {})[cache_id] = cache.state_code_of(block)
        saved_rows = [array("q", directory.stats._row) for directory in self._directories]
        try:
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
                elif reported != resident:
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
                tracked = Counter(directory.tracked_addresses())
                listed = sum(tracked.values())
                if directory.entry_count() != listed:
                    violations.append(
                        f"directory slice {slice_id} counts "
                        f"{directory.entry_count()} entries but lists {listed}"
                    )
                for local in sorted(tracked):
                    block = self.global_address(local, slice_id)
                    if tracked[local] > 1:
                        violations.append(
                            f"block {block:#x} held in {tracked[local]} entries "
                            f"of its home directory"
                        )
                    if block not in holders:
                        violations.append(
                            f"block {block:#x} tracked by its home directory "
                            f"but resident in no cache"
                        )
        finally:
            for directory, row in zip(self._directories, saved_rows):
                directory.stats._row[:] = row
        return violations
