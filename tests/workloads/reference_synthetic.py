"""The numpy chunk selection of ``SyntheticWorkload``: the tests' oracle.

:meth:`repro.workloads.synthetic.SyntheticWorkload.trace_chunks` builds
each chunk with the compiled ``synthetic`` kernel.  :func:`reference_chunks`
is the vectorized numpy selection it replaced, drawing from the workload's
generator call by call in the historical order (four ``random(n)`` calls,
every region's ``n`` Zipf ranks resolved through :meth:`ZipfSampler.sample`)
and choosing among whole arrays with ``np.where``.
``tests/workloads/test_synthetic_kernel.py`` holds the kernel equal to it,
chunk for chunk.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

from repro.config import SystemConfig
from repro.workloads.base import ZipfSampler
from repro.workloads.synthetic import SyntheticWorkload

_BATCH = 4096


def reference_chunks(
    workload: SyntheticWorkload, system: SystemConfig, seed: int = 0
) -> Iterator[tuple]:
    """The chunks of ``workload.trace_chunks(system, seed)``, selected in numpy."""
    rng = np.random.default_rng(seed ^ zlib.crc32(workload.name.encode()))
    regions = workload._resolve_regions(system)
    instr_sampler = ZipfSampler(regions.instr_blocks, workload.zipf_alpha, rng)
    shared_sampler = ZipfSampler(regions.shared_blocks, workload.zipf_alpha, rng)
    private_sampler = ZipfSampler(regions.private_blocks, workload.zipf_alpha, rng)
    num_cores = system.num_cores
    block_bytes = regions.block_bytes
    private_bases = np.asarray(regions.private_bases, dtype=np.int64)

    while True:
        cores = rng.integers(0, num_cores, size=_BATCH)
        kind_draw = rng.random(_BATCH)
        shared_draw = rng.random(_BATCH)
        write_draw = rng.random(_BATCH)
        migrate_draw = rng.random(_BATCH)
        migrate_target = rng.integers(0, num_cores, size=_BATCH)
        instr_offsets = instr_sampler.sample(_BATCH)
        shared_offsets = shared_sampler.sample(_BATCH)
        private_offsets = private_sampler.sample(_BATCH)

        is_instr = kind_draw < workload.instr_fraction
        is_shared = ~is_instr & (shared_draw < workload.shared_data_fraction)
        is_private = ~is_instr & ~is_shared
        owners = np.where(
            migrate_draw < workload.migration_fraction, migrate_target, cores
        )
        addresses = np.where(
            is_instr,
            regions.instr_base + instr_offsets * block_bytes,
            np.where(
                is_shared,
                regions.shared_base + shared_offsets * block_bytes,
                private_bases[owners] + private_offsets * block_bytes,
            ),
        )
        writes = (is_shared & (write_draw < workload.shared_write_fraction)) | (
            is_private & (write_draw < workload.private_write_fraction)
        )
        yield (cores, addresses, writes, is_instr)
