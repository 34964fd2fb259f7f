"""The chunked trace API must flatten to exactly the per-access stream.

``run_workload`` feeds :meth:`Workload.trace_chunks` into the simulator's
chunked loop, so any divergence between ``trace()`` and ``trace_chunks()``
would silently change every figure.  These tests pin the equivalence for
the natively vectorized generators (synthetic, uniform, and the scientific
em3d and ocean, whose per-access ``trace()`` is the reference), and check
that the chunked simulator loop produces the same measurements as the
per-access loop.
"""

from itertools import islice

import pytest

from repro.config import CacheLevel
from repro.coherence.simulator import TraceSimulator
from repro.coherence.system import TiledCMP
from repro.core.cuckoo_directory import CuckooDirectory
from repro.experiments.common import scaled_system
from repro.workloads.suite import get_workload
from repro.workloads.synthetic import UniformRandomWorkload


def _flatten(chunks, limit):
    produced = 0
    for cores, addresses, writes, instrs in chunks:
        assert len(cores) == len(addresses) == len(writes) == len(instrs)
        for fields in zip(cores, addresses, writes, instrs):
            yield fields
            produced += 1
            if produced >= limit:
                return


@pytest.mark.parametrize("scale", [64, 16])
@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2], ids=["L1", "L2"])
@pytest.mark.parametrize("name", ["Oracle", "Qry2", "em3d", "ocean"])
def test_trace_chunks_flatten_to_trace(name, level, scale):
    system = scaled_system(level, scale=scale)
    workload = get_workload(name)
    # Past the end of an ocean sweep at scale 64 (24,320 accesses), so the
    # chunks must restart the grid exactly where trace() does.
    limit = 40_000
    from_chunks = list(_flatten(workload.trace_chunks(system, seed=3), limit))
    from_stream = [
        (access.core, access.address, access.is_write, access.is_instruction)
        for access in islice(workload.trace(system, seed=3), limit)
    ]
    assert from_chunks == from_stream


def test_uniform_workload_chunks_flatten_to_trace():
    system = scaled_system(CacheLevel.L2, scale=64)
    workload = UniformRandomWorkload(footprint_blocks=512, write_fraction=0.25)
    limit = 4000
    from_chunks = list(_flatten(workload.trace_chunks(system, seed=9), limit))
    from_stream = [
        (access.core, access.address, access.is_write, access.is_instruction)
        for access in islice(workload.trace(system, seed=9), limit)
    ]
    assert from_chunks == from_stream


@pytest.mark.parametrize("name", ["Oracle", "em3d", "ocean"])
def test_vectorised_chunk_fields_are_numpy_arrays(name):
    """The batched front-end (``TiledCMP.access_batch``) consumes chunk
    fields with vectorised address math; the natively vectorised generators
    must hand over their arrays directly instead of paying a per-element
    ``tolist`` round-trip the consumer would immediately undo."""
    import numpy as np

    system = scaled_system(CacheLevel.L1, scale=64)
    chunk = next(iter(get_workload(name).trace_chunks(system, seed=0)))
    cores, addresses, writes, instrs = chunk
    assert isinstance(cores, np.ndarray) and cores.dtype.kind in "iu"
    assert isinstance(addresses, np.ndarray) and addresses.dtype.kind in "iu"
    assert isinstance(writes, np.ndarray) and writes.dtype == np.bool_
    assert isinstance(instrs, np.ndarray) and instrs.dtype == np.bool_


def test_trace_stream_yields_plain_python_scalars():
    """``trace()`` remains the object-level API: MemoryAccess fields stay
    plain Python scalars even when the chunks underneath are numpy arrays."""
    system = scaled_system(CacheLevel.L1, scale=64)
    access = next(iter(get_workload("Oracle").trace(system, seed=0)))
    assert type(access.core) is int
    assert type(access.address) is int
    assert type(access.is_write) is bool
    assert type(access.is_instruction) is bool


def _fresh_simulator():
    config = scaled_system(CacheLevel.L1, num_cores=4, scale=64)
    system = TiledCMP(
        config,
        lambda num_caches, slice_id: CuckooDirectory(
            num_caches=num_caches, num_sets=64, num_ways=4
        ),
    )
    return config, TraceSimulator(system, warmup_accesses=500,
                                  occupancy_sample_interval=700)


def test_run_chunks_matches_run():
    workload = get_workload("Oracle")
    config, simulator_a = _fresh_simulator()
    result_a = simulator_a.run(workload.trace(config, seed=5), max_accesses=4000)
    _, simulator_b = _fresh_simulator()
    result_b = simulator_b.run_chunks(
        workload.trace_chunks(config, seed=5), max_accesses=4000
    )
    assert result_a.accesses == result_b.accesses
    assert result_a.cache_hit_rate == result_b.cache_hit_rate
    assert result_a.occupancy_samples == result_b.occupancy_samples
    stats_a, stats_b = result_a.directory_stats, result_b.directory_stats
    assert stats_a.insertions == stats_b.insertions
    assert stats_a.insertion_attempts == stats_b.insertion_attempts
    assert stats_a.attempt_histogram == stats_b.attempt_histogram
    assert stats_a.forced_invalidations == stats_b.forced_invalidations
    assert result_a.traffic.messages == result_b.traffic.messages
    assert result_a.traffic.hops == result_b.traffic.hops
