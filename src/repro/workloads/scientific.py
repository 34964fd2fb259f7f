"""Scientific workloads: em3d and ocean.

Unlike the server workloads, the two scientific kernels in Table 2 have
well-defined algorithmic structure, so their generators walk actual data
structures rather than sampling from popularity distributions:

* **em3d** propagates electromagnetic values through a bipartite graph of
  E-nodes and H-nodes.  Nodes are partitioned across cores; updating a node
  reads its neighbours, a configurable fraction of which live on a remote
  core (Table 2: 768 K nodes, degree 2, 15 % remote).  The remote fraction
  produces low-degree producer/consumer sharing; the bulk of the footprint
  is private.

* **ocean** performs red-black Gauss–Seidel style relaxation sweeps over a
  2-D grid partitioned into horizontal bands, one per core.  A core's
  sweep touches only its own band except at the band boundaries, where the
  stencil reads the neighbouring core's edge rows.  The footprint is
  therefore almost entirely private and — with a grid sized beyond the
  aggregate cache capacity — keeps the private caches full of distinct
  blocks, which is exactly the "nearly 100 % unique private blocks"
  behaviour the paper highlights for ocean (Sections 5.2 and 5.4).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.coherence.system import MemoryAccess
from repro.config import SystemConfig
from repro.workloads.base import AddressSpaceLayout, Workload, WorkloadCategory

__all__ = ["Em3dWorkload", "OceanWorkload"]

#: Node updates per em3d draw batch (the chunk of :meth:`Em3dWorkload.trace_chunks`).
_EM3D_BATCH = 1024


class Em3dWorkload(Workload):
    """Bipartite-graph propagation kernel (em3d).

    Parameters
    ----------
    nodes_per_core_l2x:
        Number of graph nodes owned by each core, in units of one
        private-L2 capacity (in blocks).  Values near 1 keep each private
        cache full of its own partition.
    degree:
        Neighbours read per node update (Table 2 uses degree 2).
    remote_fraction:
        Probability that a neighbour lives on another core (15 % in
        Table 2).
    values_per_block:
        Graph node values packed per cache block; 8 models 8-byte values
        in 64-byte blocks.
    """

    def __init__(
        self,
        name: str = "em3d",
        nodes_per_core_l2x: float = 1.2,
        degree: int = 2,
        remote_fraction: float = 0.15,
        values_per_block: int = 8,
    ) -> None:
        super().__init__(name, WorkloadCategory.SCIENTIFIC)
        if nodes_per_core_l2x <= 0:
            raise ValueError("nodes_per_core_l2x must be positive")
        if degree <= 0:
            raise ValueError("degree must be positive")
        if not 0.0 <= remote_fraction <= 1.0:
            raise ValueError("remote_fraction must be in [0, 1]")
        if values_per_block <= 0:
            raise ValueError("values_per_block must be positive")
        self.nodes_per_core_l2x = nodes_per_core_l2x
        self.degree = degree
        self.remote_fraction = remote_fraction
        self.values_per_block = values_per_block

    def _partitions(self, system: SystemConfig) -> Tuple[int, List[int]]:
        """Nodes per core, and each core's contiguous partition base."""
        blocks_per_core = max(
            1,
            int(self.nodes_per_core_l2x * system.l2_config.num_frames),
        )
        layout = AddressSpaceLayout(system.block_bytes)
        bases = [layout.allocate(blocks_per_core) for _ in range(system.num_cores)]
        return blocks_per_core * self.values_per_block, bases

    def _draws(self, rng: np.random.Generator, num_cores: int, nodes_per_core: int):
        """One batch's five draws, in stream order."""
        batch, degree = _EM3D_BATCH, self.degree
        return (
            rng.integers(0, num_cores, size=batch),
            rng.integers(0, nodes_per_core, size=batch),
            rng.random((batch, degree)),
            rng.integers(0, num_cores, size=(batch, degree)),
            rng.integers(0, nodes_per_core, size=(batch, degree)),
        )

    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        """The per-access stream: the reference :meth:`trace_chunks` matches."""
        rng = np.random.default_rng(seed)
        block_bytes = system.block_bytes
        nodes_per_core, partition_bases = self._partitions(system)
        num_cores = system.num_cores

        def node_address(core: int, node_index: int) -> int:
            block = node_index // self.values_per_block
            return partition_bases[core] + block * block_bytes

        while True:
            cores, nodes, remote_draws, remote_cores, neighbour_nodes = self._draws(
                rng, num_cores, nodes_per_core
            )
            for i in range(_EM3D_BATCH):
                core = int(cores[i])
                # Read the neighbours feeding this node.
                for d in range(self.degree):
                    owner = core
                    if remote_draws[i, d] < self.remote_fraction:
                        owner = int(remote_cores[i, d])
                    yield MemoryAccess(
                        core=core,
                        address=node_address(owner, int(neighbour_nodes[i, d])),
                        is_write=False,
                    )
                # Write the updated node value (always local).
                yield MemoryAccess(
                    core=core,
                    address=node_address(core, int(nodes[i])),
                    is_write=True,
                )

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = 4096
    ) -> Iterator[tuple]:
        """One chunk per batch of node updates, built from the batch's draws.

        Each update is its ``degree`` neighbour reads, then its write, as
        in :meth:`trace`; the draws are the same five in the same order, so
        the flattened chunks are that stream access for access.
        """
        del chunk_size  # a chunk is one draw batch
        rng = np.random.default_rng(seed)
        block_bytes = system.block_bytes
        nodes_per_core, partition_bases = self._partitions(system)
        bases = np.asarray(partition_bases, dtype=np.int64)
        num_cores = system.num_cores
        per_update = self.degree + 1
        writes = np.tile(np.arange(per_update) == self.degree, _EM3D_BATCH)
        no_instrs = np.zeros(writes.size, dtype=np.bool_)
        writes.setflags(write=False)
        no_instrs.setflags(write=False)
        while True:
            cores, nodes, remote_draws, remote_cores, neighbour_nodes = self._draws(
                rng, num_cores, nodes_per_core
            )
            owners = np.where(
                remote_draws < self.remote_fraction, remote_cores, cores[:, None]
            )
            addresses = np.empty((_EM3D_BATCH, per_update), dtype=np.int64)
            addresses[:, :-1] = (
                bases[owners] + neighbour_nodes // self.values_per_block * block_bytes
            )
            addresses[:, -1] = bases[cores] + nodes // self.values_per_block * block_bytes
            yield np.repeat(cores, per_update), addresses.ravel(), writes, no_instrs


class OceanWorkload(Workload):
    """Partitioned 2-D grid relaxation (ocean).

    The grid is split into horizontal bands, one per core.  Each sweep
    visits the band row by row; updating a point reads its four-point
    stencil, so the first and last rows of a band also read one row owned
    by the neighbouring core.  ``grid_l2x`` sizes the *per-core band* in
    units of one private-L2 capacity so the aggregate footprint exceeds
    the aggregate cache capacity, as the 1026×1026 double-precision grid
    of Table 2 does relative to the paper's 16 MB of L2.
    """

    def __init__(
        self,
        name: str = "ocean",
        grid_l2x: float = 1.5,
        points_per_block: int = 8,
        write_back_every_point: bool = True,
    ) -> None:
        super().__init__(name, WorkloadCategory.SCIENTIFIC)
        if grid_l2x <= 0:
            raise ValueError("grid_l2x must be positive")
        if points_per_block <= 0:
            raise ValueError("points_per_block must be positive")
        self.grid_l2x = grid_l2x
        self.points_per_block = points_per_block
        self.write_back_every_point = write_back_every_point

    def _bands(self, system: SystemConfig) -> Tuple[int, int, List[int]]:
        """Rows per band, blocks per row, and each core's band base."""
        blocks_per_band = max(
            2, int(self.grid_l2x * system.l2_config.num_frames)
        )
        # Arrange each band as rows of blocks; a square-ish aspect ratio keeps
        # boundary rows a small fraction of the band, like a real 2-D grid.
        rows_per_band = max(2, int(np.sqrt(blocks_per_band)))
        blocks_per_row = max(1, blocks_per_band // rows_per_band)
        layout = AddressSpaceLayout(system.block_bytes)
        band_bases = [
            layout.allocate(rows_per_band * blocks_per_row)
            for _ in range(system.num_cores)
        ]
        return rows_per_band, blocks_per_row, band_bases

    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        """The per-access stream: the reference :meth:`trace_chunks` matches."""
        block_bytes = system.block_bytes
        rows_per_band, blocks_per_row, band_bases = self._bands(system)
        num_cores = system.num_cores

        def block_address(core: int, row: int, column: int) -> int:
            return band_bases[core] + (row * blocks_per_row + column) * block_bytes

        while True:
            # One full relaxation sweep: every core walks its band in lockstep
            # (interleaved here row by row so the directory sees concurrent
            # activity from all tiles, as it would in the parallel run).
            for row in range(rows_per_band):
                for column in range(blocks_per_row):
                    for core in range(num_cores):
                        # North neighbour: previous row, possibly owned by core-1.
                        if row > 0:
                            yield MemoryAccess(
                                core=core,
                                address=block_address(core, row - 1, column),
                                is_write=False,
                            )
                        elif core > 0:
                            yield MemoryAccess(
                                core=core,
                                address=block_address(
                                    core - 1, rows_per_band - 1, column
                                ),
                                is_write=False,
                            )
                        # South neighbour: next row, possibly owned by core+1.
                        if row < rows_per_band - 1:
                            yield MemoryAccess(
                                core=core,
                                address=block_address(core, row + 1, column),
                                is_write=False,
                            )
                        elif core < num_cores - 1:
                            yield MemoryAccess(
                                core=core,
                                address=block_address(core + 1, 0, column),
                                is_write=False,
                            )
                        # The point itself: read-modify-write.
                        address = block_address(core, row, column)
                        yield MemoryAccess(core=core, address=address, is_write=False)
                        if self.write_back_every_point:
                            yield MemoryAccess(
                                core=core, address=address, is_write=True
                            )

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = 4096
    ) -> Iterator[tuple]:
        """One chunk per grid row, in :meth:`trace` order.

        A row's accesses repeat one pattern per column: each core's north
        and south reads (where the band has them), its point's read and
        write.  The pattern's addresses at column 0 plus the column's
        offset give the row; no whole sweep is ever built.
        """
        del chunk_size, seed  # a chunk is one row; the sweep draws nothing
        block_bytes = system.block_bytes
        rows_per_band, blocks_per_row, band_bases = self._bands(system)
        num_cores = system.num_cores
        last_row = rows_per_band - 1
        row_bytes = blocks_per_row * block_bytes
        columns = np.arange(blocks_per_row, dtype=np.int64)[:, None] * block_bytes
        while True:
            for row in range(rows_per_band):
                # (core, address at column 0, is_write) per access of a column.
                pattern = []
                for core in range(num_cores):
                    base = band_bases[core]
                    if row > 0:
                        pattern.append((core, base + (row - 1) * row_bytes, False))
                    elif core > 0:
                        north = band_bases[core - 1] + last_row * row_bytes
                        pattern.append((core, north, False))
                    if row < last_row:
                        pattern.append((core, base + (row + 1) * row_bytes, False))
                    elif core < num_cores - 1:
                        pattern.append((core, band_bases[core + 1], False))
                    pattern.append((core, base + row * row_bytes, False))
                    if self.write_back_every_point:
                        pattern.append((core, base + row * row_bytes, True))
                cores, starts, writes = zip(*pattern)
                yield (
                    np.tile(np.asarray(cores, dtype=np.int64), blocks_per_row),
                    (np.asarray(starts, dtype=np.int64) + columns).ravel(),
                    np.tile(np.asarray(writes, dtype=np.bool_), blocks_per_row),
                    np.zeros(len(pattern) * blocks_per_row, dtype=np.bool_),
                )
