"""Parameterised synthetic server-workload generator.

The generator models the structure that commercial server workloads show
at the memory system level (and which the paper's Figure 8 exposes):

* an **instruction footprint** executed by every core — OLTP and web
  servers have megabyte-scale code paths shared by all cores, which is the
  main reason the Shared-L2 directory occupancy stays well below 100 %;
* a **shared data footprint** (buffer pools, lock tables, session state)
  accessed by every core with a Zipf-skewed popularity distribution;
* a **private data footprint per core** (thread stacks, scan buffers,
  sort areas) accessed only by its owner, apart from a small
  thread-migration fraction;
* a read/write mix per data class (shared-data writes are what exercise
  the invalidation machinery).

Footprint sizes are expressed relative to the system's cache sizes — the
instruction footprint in units of one L1 cache, the data footprints in
units of one (private-L2-sized) cache — so the same workload definition
drives full-size and scaled-down systems with the same *relative*
behaviour.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.coherence.system import MemoryAccess
from repro.config import SystemConfig
from repro.core import native
from repro.workloads.base import (
    AddressSpaceLayout,
    Workload,
    WorkloadCategory,
    ZipfSampler,
)

__all__ = ["SyntheticWorkload", "UniformRandomWorkload"]

_BATCH = 4096


@dataclass(frozen=True)
class _Regions:
    """Resolved footprint regions for one (workload, system) pair."""

    instr_base: int
    instr_blocks: int
    shared_base: int
    shared_blocks: int
    private_bases: List[int]
    private_blocks: int
    block_bytes: int


class SyntheticWorkload(Workload):
    """Generic OLTP/DSS/Web-style synthetic workload.

    Parameters
    ----------
    name, category:
        Identification (Table 2 row).
    instr_fraction:
        Fraction of all accesses that are instruction fetches.
    instr_footprint_l1x:
        Instruction footprint in units of one L1 cache capacity.
    shared_data_footprint_l2x:
        Shared-data footprint in units of one private-L2 capacity.
    private_footprint_l2x:
        Per-core private-data footprint in units of one private-L2
        capacity (values ≥ 1 keep the private caches full of distinct
        blocks, the DSS/scientific regime of Figure 8).
    shared_data_fraction:
        Fraction of data accesses that target the shared region.
    shared_write_fraction, private_write_fraction:
        Write probability for shared / private data accesses.
    zipf_alpha:
        Popularity skew within each region (0 = uniform).
    migration_fraction:
        Probability that a private-data access targets *another* core's
        private region (thread migration / work stealing), which creates
        the low-degree data sharing server workloads exhibit.
    """

    def __init__(
        self,
        name: str,
        category: WorkloadCategory,
        instr_fraction: float = 0.30,
        instr_footprint_l1x: float = 4.0,
        shared_data_footprint_l2x: float = 2.0,
        private_footprint_l2x: float = 0.5,
        shared_data_fraction: float = 0.4,
        shared_write_fraction: float = 0.15,
        private_write_fraction: float = 0.30,
        zipf_alpha: float = 0.6,
        migration_fraction: float = 0.02,
    ) -> None:
        super().__init__(name, category)
        for label, value in (
            ("instr_fraction", instr_fraction),
            ("shared_data_fraction", shared_data_fraction),
            ("shared_write_fraction", shared_write_fraction),
            ("private_write_fraction", private_write_fraction),
            ("migration_fraction", migration_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        for label, value in (
            ("instr_footprint_l1x", instr_footprint_l1x),
            ("shared_data_footprint_l2x", shared_data_footprint_l2x),
            ("private_footprint_l2x", private_footprint_l2x),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")
        if zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")
        self.instr_fraction = instr_fraction
        self.instr_footprint_l1x = instr_footprint_l1x
        self.shared_data_footprint_l2x = shared_data_footprint_l2x
        self.private_footprint_l2x = private_footprint_l2x
        self.shared_data_fraction = shared_data_fraction
        self.shared_write_fraction = shared_write_fraction
        self.private_write_fraction = private_write_fraction
        self.zipf_alpha = zipf_alpha
        self.migration_fraction = migration_fraction

    # -- region resolution -----------------------------------------------------
    def _resolve_regions(self, system: SystemConfig) -> _Regions:
        block_bytes = system.block_bytes
        layout = AddressSpaceLayout(block_bytes)
        instr_blocks = max(1, int(self.instr_footprint_l1x * system.l1_config.num_frames))
        shared_blocks = max(
            1, int(self.shared_data_footprint_l2x * system.l2_config.num_frames)
        )
        private_blocks = max(
            1, int(self.private_footprint_l2x * system.l2_config.num_frames)
        )
        instr_base = layout.allocate(instr_blocks)
        shared_base = layout.allocate(shared_blocks)
        private_bases = [
            layout.allocate(private_blocks) for _ in range(system.num_cores)
        ]
        return _Regions(
            instr_base=instr_base,
            instr_blocks=instr_blocks,
            shared_base=shared_base,
            shared_blocks=shared_blocks,
            private_bases=private_bases,
            private_blocks=private_blocks,
            block_bytes=block_bytes,
        )

    # -- trace generation ---------------------------------------------------------
    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = _BATCH
    ) -> Iterator[tuple]:
        """Build whole access chunks with the compiled ``synthetic`` kernel.

        Each chunk draws, in this order: the cores, the kind, shared, write
        and migration uniforms (one ``(4, n)`` ``random`` call, the stream
        of four ``random(n)`` calls), the migration targets, and the three
        regions' Zipf uniforms (one ``(3, n)`` call; three ``integers``
        calls when ``zipf_alpha == 0``).  The kernel then selects each access's region,
        owner and write flag and resolves only its own region's rank through
        the samplers' guide tables, so the flattened stream is bit-identical
        to what :meth:`trace` has always produced.  ``chunk_size`` is fixed
        at the generator's historical batch size to keep the draw boundaries
        -- and therefore the stream -- stable.
        """
        del chunk_size  # draw-order stability requires the historical batch
        # Derive the stream seed from the workload name with a *stable* hash
        # (Python's built-in hash() is salted per process, which would make
        # traces irreproducible across runs).
        rng = np.random.default_rng(seed ^ zlib.crc32(self.name.encode()))
        regions = self._resolve_regions(system)
        samplers = [
            ZipfSampler(blocks, self.zipf_alpha, rng)
            for blocks in (regions.instr_blocks, regions.shared_blocks, regions.private_blocks)
        ]
        num_cores = system.num_cores
        uniform = self.zipf_alpha == 0.0
        workload = (
            (
                self.instr_fraction, self.shared_data_fraction, self.shared_write_fraction,
                self.private_write_fraction, self.migration_fraction,
            ),
            regions.instr_base,
            regions.shared_base,
            regions.block_bytes,
            np.asarray(regions.private_bases, dtype=np.int64),
            None if uniform else tuple(sampler.tables for sampler in samplers),
        )
        synthetic = native.KERNELS.synthetic
        # The uniforms never leave the generator, so every chunk draws into
        # the same two buffers (``out=`` fills them as a fresh array would).
        draws = np.empty((4, _BATCH))
        ranks = np.empty((3, _BATCH))
        while True:
            cores = rng.integers(0, num_cores, size=_BATCH)
            rng.random(out=draws)
            targets = rng.integers(0, num_cores, size=_BATCH)
            if uniform:
                ranks = np.stack([sampler.sample(_BATCH) for sampler in samplers])
            else:
                rng.random(out=ranks)
            addresses = np.empty(_BATCH, dtype=np.int64)
            writes = np.empty(_BATCH, dtype=np.bool_)
            instrs = np.empty(_BATCH, dtype=np.bool_)
            synthetic(workload, cores, draws, targets, ranks, (addresses, writes, instrs))
            yield (cores, addresses, writes, instrs)

    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        return self._trace_via_chunks(system, seed)


class UniformRandomWorkload(Workload):
    """Uniform random accesses over a fixed footprint (stress/diagnostic).

    Every core draws blocks uniformly from one common region, so sharing is
    accidental and the access stream has no locality — the hardest case for
    any directory organization and a useful stress generator for tests.
    """

    def __init__(
        self,
        name: str = "uniform",
        footprint_blocks: int = 1 << 16,
        write_fraction: float = 0.3,
    ) -> None:
        super().__init__(name, WorkloadCategory.SYNTHETIC)
        if footprint_blocks <= 0:
            raise ValueError("footprint_blocks must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.footprint_blocks = footprint_blocks
        self.write_fraction = write_fraction

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = _BATCH
    ) -> Iterator[tuple]:
        del chunk_size  # draw-order stability requires the historical batch
        rng = np.random.default_rng(seed)
        block_bytes = system.block_bytes
        base = 0x4000_0000
        num_cores = system.num_cores
        no_instrs = np.zeros(_BATCH, dtype=np.bool_)  # shared by every chunk
        no_instrs.setflags(write=False)  # enforce, not just assert, read-only
        while True:
            cores = rng.integers(0, num_cores, size=_BATCH)
            offsets = rng.integers(0, self.footprint_blocks, size=_BATCH)
            writes = rng.random(_BATCH) < self.write_fraction
            yield (cores, base + offsets * block_bytes, writes, no_instrs)

    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        return self._trace_via_chunks(system, seed)
