"""The compiled ``synthetic`` kernel against the numpy chunk selection.

``SyntheticWorkload.trace_chunks`` builds every chunk with ``synthetic`` in
``repro/core/_kernels.c``.  These tests hold it to the numpy selection of
``reference_synthetic.py`` chunk for chunk (values and dtypes): every suite
workload at both levels and scales 16 and 64, uniform and Zipf ranks, each
fraction pinned at 0 and at 1, 1-64 cores and several seeds.  They also
check that the kernel refuses a bad uniform, a corrupt guide table, an
owner out of range and a buffer of the wrong type or length with nothing
written.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_synthetic import reference_chunks

from repro.config import CacheLevel
from repro.core import native
from repro.experiments.common import scaled_system
from repro.workloads.base import ZipfSampler
from repro.workloads.suite import get_workload, iter_workloads
from repro.workloads.synthetic import SyntheticWorkload

SYNTHETIC = [w.name for w in iter_workloads() if isinstance(w, SyntheticWorkload)]
FRACTIONS = (
    "instr_fraction", "shared_data_fraction", "shared_write_fraction",
    "private_write_fraction", "migration_fraction",
)
_PARAMETERS = FRACTIONS + (
    "instr_footprint_l1x", "shared_data_footprint_l2x", "private_footprint_l2x",
    "zipf_alpha",
)


def variant(name: str, **overrides) -> SyntheticWorkload:
    """Suite workload ``name`` (same name, so the same stream seed) with
    some parameters overridden."""
    workload = get_workload(name)
    parameters = {key: getattr(workload, key) for key in _PARAMETERS}
    parameters.update(overrides)
    return SyntheticWorkload(name, workload.category, **parameters)


def assert_chunks_match(workload, system, seed, chunks=2):
    pairs = zip(workload.trace_chunks(system, seed=seed), reference_chunks(workload, system, seed))
    for number, (kernel, reference) in enumerate(islice(pairs, chunks)):
        for field, got, want in zip(("cores", "addresses", "writes", "instrs"), kernel, reference):
            assert got.dtype == want.dtype, (number, field)
            np.testing.assert_array_equal(got, want, err_msg=f"chunk {number}, {field}")


@pytest.mark.parametrize("scale", [16, 64])
@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2], ids=["L1", "L2"])
@pytest.mark.parametrize("name", SYNTHETIC)
def test_suite_workload_chunks_equal_the_numpy_selection(name, level, scale):
    assert_chunks_match(get_workload(name), scaled_system(level, scale=scale), seed=0)


@pytest.mark.parametrize("uniform", [False, True], ids=["zipf", "uniform"])
@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_a_fraction_at_either_end_equals_the_numpy_selection(fraction, value, uniform):
    overrides = {fraction: value}
    if uniform:
        overrides["zipf_alpha"] = 0.0
    workload = variant("Oracle", **overrides)
    assert_chunks_match(workload, scaled_system(CacheLevel.L1, num_cores=4, scale=64), seed=5)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SYNTHETIC),
    level=st.sampled_from([CacheLevel.L1, CacheLevel.L2]),
    scale=st.sampled_from([16, 64]),
    cores=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    uniform=st.booleans(),
    pinned=st.dictionaries(st.sampled_from(FRACTIONS), st.sampled_from([0.0, 1.0]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_equals_the_numpy_selection(name, level, scale, cores, uniform, pinned, seed):
    overrides = dict(pinned)
    if uniform:
        overrides["zipf_alpha"] = 0.0
    workload = variant(name, **overrides)
    assert_chunks_match(workload, scaled_system(level, num_cores=cores, scale=scale), seed)


# -- refusals ------------------------------------------------------------------

N = 512


def kernel_arguments(uniform=False, cores=4):
    """Valid ``synthetic`` arguments for one Oracle chunk of ``N`` accesses,
    built as ``trace_chunks`` builds them, with sentinel-filled outputs."""
    workload = get_workload("Oracle")
    system = scaled_system(CacheLevel.L1, num_cores=cores, scale=64)
    rng = np.random.default_rng(11)
    regions = workload._resolve_regions(system)
    alpha = 0.0 if uniform else workload.zipf_alpha
    samplers = [
        ZipfSampler(blocks, alpha, rng)
        for blocks in (regions.instr_blocks, regions.shared_blocks, regions.private_blocks)
    ]
    spec = (
        tuple(getattr(workload, name) for name in FRACTIONS),
        regions.instr_base,
        regions.shared_base,
        regions.block_bytes,
        np.asarray(regions.private_bases, dtype=np.int64),
        None if uniform else tuple(sampler.tables for sampler in samplers),
    )
    draws = rng.random((4, N))
    draws[0, :3] = (0.0, 0.5, 0.99)  # an instruction fetch, then data
    draws[1, :3] = (0.5, 0.0, 0.99)  # shared data, then private data
    ranks = (
        np.stack([sampler.sample(N) for sampler in samplers]) if uniform else rng.random((3, N))
    )
    out = (np.full(N, -7, dtype=np.int64), np.ones(N, dtype=np.bool_), np.ones(N, dtype=np.bool_))
    return [spec, rng.integers(0, cores, N), draws, rng.integers(0, cores, N), ranks, out]


def refused(arguments, error, match=None):
    """The kernel raises ``error`` and every output keeps its sentinel."""
    out = arguments[-1]
    with pytest.raises(error, match=match):
        native.KERNELS.synthetic(*arguments)
    assert (out[0] == -7).all() and out[1].all() and out[2].all()


@pytest.mark.parametrize("uniform", [False, True], ids=["zipf", "uniform"])
def test_valid_arguments_write_the_chunk(uniform):
    arguments = kernel_arguments(uniform)
    native.KERNELS.synthetic(*arguments)
    addresses, writes, instrs = arguments[-1]
    assert (addresses > 0).all() and instrs[0] and not instrs[1:3].any()


@pytest.mark.parametrize("uniform", [1.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("access", [0, 1, 2], ids=["instr", "shared", "private"])
def test_a_uniform_outside_the_unit_interval_is_refused(uniform, access):
    arguments = kernel_arguments()
    arguments[4][:, access] = uniform  # every region's, so the access reads one
    refused(arguments, ValueError, "uniform")


@pytest.mark.parametrize("region", [0, 1, 2], ids=["instr", "shared", "private"])
def test_a_corrupt_guide_table_is_refused(region):
    arguments = kernel_arguments()
    spec = list(arguments[0])
    samplers = list(spec[5])
    cdf, guide = samplers[region]
    corrupt = guide.copy()
    corrupt[1:] = cdf.size + 1  # past the population
    samplers[region] = (cdf, corrupt)
    spec[5] = tuple(samplers)
    arguments[0] = tuple(spec)
    refused(arguments, ValueError, "guide")
    samplers[region] = (cdf, guide[:-1])  # not a power of two plus one
    spec[5] = tuple(samplers)
    arguments[0] = tuple(spec)
    refused(arguments, ValueError, "power of two")


@pytest.mark.parametrize("field", [1, 3], ids=["core", "migration-target"])
@pytest.mark.parametrize("owner", [4, -1, 2**40])
def test_an_owner_out_of_range_is_refused(field, owner):
    arguments = kernel_arguments(cores=4)
    arguments[2][0, 7] = 0.99  # a data access ...
    arguments[2][1, 7] = 0.99  # ... to private data ...
    arguments[2][3, 7] = 0.0 if field == 3 else 0.99  # ... migrating or not
    arguments[field][7] = owner
    refused(arguments, IndexError, "owner")


@pytest.mark.parametrize(
    "position,replace,error",
    [
        (1, lambda cores: cores.astype(np.int32), TypeError),
        (2, lambda draws: draws.astype(np.float32), TypeError),
        (2, lambda draws: draws[:3].copy(), ValueError),
        (3, lambda targets: targets[:-1].copy(), ValueError),
        (4, lambda ranks: ranks.astype(np.int64), TypeError),  # Zipf ranks are uniforms
        (4, lambda ranks: ranks[:, :-1].copy(), ValueError),
        (5, lambda out: (out[0][:-1], out[1], out[2]), ValueError),
        (5, lambda out: (out[0], out[1].astype(np.int64), out[2]), TypeError),
        (5, lambda out: (out[0].astype(np.float64), out[1], out[2]), TypeError),
    ],
    ids=["int32-cores", "float32-draws", "three-draw-rows", "short-targets", "integer-ranks",
         "short-ranks", "short-addresses", "int64-writes", "float-addresses"],
)
def test_a_buffer_of_the_wrong_type_or_length_is_refused(position, replace, error):
    arguments = kernel_arguments()
    sentinels = arguments[-1]
    arguments[position] = replace(arguments[position])
    with pytest.raises(error):
        native.KERNELS.synthetic(*arguments)
    assert (sentinels[0] == -7).all() and sentinels[1].all() and sentinels[2].all()


def test_uniform_ranks_must_be_integers():
    arguments = kernel_arguments(uniform=True)
    arguments[4] = arguments[4].astype(np.float64)
    refused(arguments, TypeError, "int64")
