"""The compiled ``zipf`` kernel against ``np.searchsorted(side="left")``.

``ZipfSampler`` inverts its CDF through a guide table (its docstring says
why that is exact).  These tests hold the kernel to numpy's search on the
uniforms where an off-by-one would show: every bucket edge ``j / M``, every
CDF value and the float just below it, and the largest uniform below 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.workloads.base import ZipfSampler

ALPHAS = (0.2, 0.6, 0.99, 1.0, 1.5, 3.0)


def resolve(sampler: ZipfSampler, uniforms: np.ndarray) -> np.ndarray:
    out = np.empty(uniforms.size, dtype=np.int64)
    native.KERNELS.zipf(sampler._cdf, sampler._guide, uniforms, out)
    return out


def edge_uniforms(sampler: ZipfSampler) -> np.ndarray:
    """Every bucket edge, every CDF value below 1 and the float below each,
    and the largest float below 1."""
    buckets = sampler._guide.size - 1
    cdf = sampler._cdf
    values = np.concatenate((
        np.arange(buckets) / buckets,
        cdf,
        np.nextafter(cdf, 0.0),
        [np.nextafter(1.0, 0.0)],
    ))
    return values[(values >= 0.0) & (values < 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    population=st.integers(0, 16).flatmap(lambda bits: st.integers(1, 1 << bits)),
    alpha=st.sampled_from(ALPHAS),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
)
def test_kernel_equals_searchsorted(population, alpha, extra):
    sampler = ZipfSampler(population, alpha, np.random.default_rng(0))
    buckets = sampler._guide.size - 1
    assert buckets & (buckets - 1) == 0 and population <= buckets // 2 < 2 * population
    uniforms = np.concatenate((edge_uniforms(sampler), np.asarray(extra, dtype=np.float64)))
    expected = np.searchsorted(sampler._cdf, uniforms, side="left")
    np.testing.assert_array_equal(resolve(sampler, uniforms), expected)


@pytest.mark.parametrize("population", [1, 2, 3, 128, 1000, 2048])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_sample_draws_as_searchsorted_did(population, alpha):
    """``sample`` draws ``rng.random(count)`` and resolves it like numpy."""
    sampler = ZipfSampler(population, alpha, np.random.default_rng(7))
    uniforms = np.random.default_rng(7).random(5000)
    expected = np.searchsorted(sampler._cdf, uniforms, side="left")
    np.testing.assert_array_equal(sampler.sample(5000), expected)


def test_kernel_rejects_a_bad_table_or_uniform():
    sampler = ZipfSampler(100, 0.6, np.random.default_rng(0))
    out = np.empty(1, dtype=np.int64)
    with pytest.raises(ValueError, match="power of two"):
        native.KERNELS.zipf(sampler._cdf, sampler._guide[:-1], np.zeros(1), out)
    for uniform in (1.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="uniform"):
            native.KERNELS.zipf(sampler._cdf, sampler._guide, np.array([uniform]), out)
    corrupt = sampler._guide.copy()
    corrupt[1:] = sampler._cdf.size + 1
    with pytest.raises(ValueError, match="guide"):
        native.KERNELS.zipf(sampler._cdf, corrupt, np.array([0.9]), out)
    with pytest.raises(TypeError, match="float64"):
        native.KERNELS.zipf(sampler._cdf.astype(np.float32), sampler._guide, np.zeros(1), out)
