"""Shared plumbing for the experiment drivers.

The paper simulates 16-core systems with 64 KB L1s and 1 MB-per-core L2s
over 100 M-instruction windows.  Replaying that volume through a pure
Python model for every (workload × configuration × organization) point
would take hours, so the experiments run, by default, on a *scaled-down*
system: cache capacities are divided by a scale factor while every ratio
that the directory behaviour depends on (associativities, block size,
footprint-to-cache ratios, provisioning factors) is preserved.  The
``scale=1`` setting recovers the paper's full-size system for anyone
willing to wait.

The simulation-based drivers no longer loop over :func:`run_workload`
themselves: each one *declares* its sweep as a
:class:`repro.engine.spec.RunGrid` of :class:`~repro.engine.spec.RunSpec`
points (see each driver's ``grid()`` function) and hands the grid to a
:class:`repro.engine.runner.ParallelRunner`, which shards the points
across worker processes and skips any point already present in the
content-addressed :class:`repro.engine.store.ResultStore`.  By default
(``runner=None``) the drivers execute serially with no cache, exactly as
before; pass a configured runner — or use the ``repro-run`` CLI — for
parallel, incremental execution.  Cached results live in
``~/.cache/repro-cuckoo/results.jsonl`` unless ``$REPRO_RESULT_STORE``
says otherwise (the benchmark harness keeps its own store under
``benchmarks/.engine-cache/``).

:func:`run_workload` remains the single source of truth for how one point
is simulated; the engine's workers call straight back into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import CacheConfig, CacheLevel, DirectoryConfig, SystemConfig
from repro.coherence.simulator import SimulationResult, TraceSimulator
from repro.coherence.system import TiledCMP
from repro.core.cuckoo_directory import CuckooDirectory
from repro.directories.base import Directory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.engine.spec import DEFAULT_MEASURE_ACCESSES, DEFAULT_SCALE
from repro.hashing.skewing import SkewingHashFamily
from repro.workloads.base import Workload

__all__ = [
    "scaled_system",
    "cuckoo_factory",
    "sparse_factory",
    "skewed_factory",
    "run_workload",
    "WorkloadRun",
    "DEFAULT_SCALE",
    "DEFAULT_MEASURE_ACCESSES",
]


def scaled_system(
    tracked_level: CacheLevel,
    num_cores: int = 16,
    scale: int = DEFAULT_SCALE,
) -> SystemConfig:
    """A Table 1 system with cache capacities divided by ``scale``.

    Associativities and the 64-byte block size are preserved, so set
    counts shrink by the scale factor.  ``scale=1`` is the paper's
    full-size system.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    l1_size = max(2 * 64 * 2, (64 * 1024) // scale)
    l2_size = max(16 * 64 * 2, (1024 * 1024) // scale)
    # Pages scale with the caches so the pages-per-directory-set ratio (which
    # governs how uneven the physical layout looks to the directory) matches
    # the full-size system.
    page_bytes = max(2 * 64, 8192 // scale)
    return SystemConfig(
        num_cores=num_cores,
        l1_config=CacheConfig(size_bytes=l1_size, associativity=2),
        l2_config=CacheConfig(size_bytes=l2_size, associativity=16),
        tracked_level=tracked_level,
        page_bytes=page_bytes,
    )


def _sets_for_provisioning(system: SystemConfig, ways: int, provisioning: float) -> int:
    """Power-of-two set count giving ``provisioning`` × worst-case capacity."""
    config = DirectoryConfig.for_provisioning(system, ways=ways, provisioning=provisioning)
    return config.sets


def cuckoo_factory(
    system: SystemConfig, ways: int = 4, provisioning: float = 1.0
) -> Callable[[int, int], Directory]:
    """Directory factory building Cuckoo slices sized by provisioning factor.

    Every slice of a system shares one skewing hash family.
    """
    sets = _sets_for_provisioning(system, ways, provisioning)
    hashes = SkewingHashFamily(ways, sets)

    def factory(num_caches: int, slice_id: int) -> Directory:
        return CuckooDirectory(
            num_caches=num_caches, num_sets=sets, num_ways=ways, hash_family=hashes
        )

    return factory


def sparse_factory(
    system: SystemConfig, ways: int = 8, provisioning: float = 2.0
) -> Callable[[int, int], Directory]:
    """Directory factory building Sparse slices sized by provisioning factor."""
    sets = _sets_for_provisioning(system, ways, provisioning)

    def factory(num_caches: int, slice_id: int) -> Directory:
        return SparseDirectory(num_caches=num_caches, num_sets=sets, num_ways=ways)

    return factory


def skewed_factory(
    system: SystemConfig, ways: int = 4, provisioning: float = 2.0
) -> Callable[[int, int], Directory]:
    """Directory factory building skewed-associative slices (one shared
    hash family per system, as :func:`cuckoo_factory`)."""
    sets = _sets_for_provisioning(system, ways, provisioning)
    hashes = SkewingHashFamily(ways, sets)

    def factory(num_caches: int, slice_id: int) -> Directory:
        return SkewedDirectory(
            num_caches=num_caches, num_sets=sets, num_ways=ways, hash_family=hashes
        )

    return factory


@dataclass
class WorkloadRun:
    """One simulated (workload, system, organization) point."""

    workload: str
    tracked_level: CacheLevel
    result: SimulationResult
    tracked_frames_total: int
    directory_capacity_total: int

    @property
    def occupancy_vs_worst_case(self) -> float:
        """Occupancy relative to the worst-case tracked-block count (1x).

        Figure 8 reports occupancy against the number of private-cache
        frames the directory must be able to track, not against the
        (possibly over-provisioned) directory capacity, so re-normalise
        the capacity-relative occupancy the simulator records.
        """
        if self.tracked_frames_total == 0:
            return 0.0
        return (
            self.result.average_occupancy
            * self.directory_capacity_total
            / self.tracked_frames_total
        )


def run_workload(
    workload: Workload,
    system_config: SystemConfig,
    directory_factory: Callable[[int, int], Directory],
    measure_accesses: int = DEFAULT_MEASURE_ACCESSES,
    warmup_accesses: Optional[int] = None,
    seed: int = 0,
    occupancy_sample_interval: int = 2_000,
    timeline_interval: Optional[int] = None,
) -> WorkloadRun:
    """Build a system, warm it up, and measure one workload on it."""
    system = TiledCMP(system_config, directory_factory)
    if warmup_accesses is None:
        warmup_accesses = workload.recommended_warmup(system_config)
    simulator = TraceSimulator(
        system,
        warmup_accesses=warmup_accesses,
        occupancy_sample_interval=occupancy_sample_interval,
        timeline_interval=timeline_interval,
    )
    # The chunked trace is access-for-access identical to workload.trace();
    # it just skips building one MemoryAccess object per access.
    chunks = workload.trace_chunks(system_config, seed=seed)
    result = simulator.run_chunks(chunks, max_accesses=measure_accesses)
    frames_total = (
        system_config.num_tracked_caches
        * system_config.tracked_cache_config.num_frames
    )
    capacity_total = sum(directory.capacity for directory in system.directories)
    return WorkloadRun(
        workload=workload.name,
        tracked_level=system_config.tracked_level,
        result=result,
        tracked_frames_total=frames_total,
        directory_capacity_total=capacity_total,
    )
