"""``PageMapper`` over its typed page table against the reference mapper.

The reference (``reference_paging.py``) keeps a dict page table and draws
one page at a time; the mapper under test draws its allocation sequence
ahead, in bulk, and translates in the compiled ``translate`` kernel.  They
must hand out the same physical page for every virtual page, whatever the
page size, the address range, the number of table doublings and the mix
of scalar and batch calls, and run out of pages at the same page.
"""

import numpy as np
import pytest
from reference_paging import ReferencePageMapper

from repro.coherence.paging import PageMapper
from repro.coherence.system import TiledCMP
from repro.experiments.common import cuckoo_factory


def stream(seed: int, size: int, span: int, base: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    addresses = base + rng.integers(0, span, size=size)
    addresses[size // 4 : size // 2] = addresses[: size // 4]  # repeats
    return addresses


def translate_both(mapper, reference, addresses, scalar_every=0, chunk=500):
    """Translate ``addresses`` through both, in chunks; every
    ``scalar_every``-th chunk one address at a time."""
    for index, start in enumerate(range(0, addresses.size, chunk)):
        segment = addresses[start : start + chunk]
        if scalar_every and index % scalar_every == 0:
            got = [mapper.translate(int(a)) for a in segment]
            want = [reference.translate(int(a)) for a in segment]
        else:
            got = mapper.translate_batch(segment).tolist()
            want = reference.translate_batch(segment).tolist()
        assert got == want
        assert mapper.pages_mapped == reference.pages_mapped


@pytest.mark.parametrize("page_bytes", [256, 2730, 8192])
@pytest.mark.parametrize("scalar_every", [0, 3])
def test_equals_the_reference(page_bytes, scalar_every):
    mapper = PageMapper(page_bytes=page_bytes, seed=5)
    reference = ReferencePageMapper(page_bytes=page_bytes, seed=5)
    translate_both(mapper, reference, stream(1, 6000, 1 << 24), scalar_every)


@pytest.mark.parametrize("page_bytes", [1 << 13, 2730])
def test_addresses_in_the_mix_bands(page_bytes):
    """Mixes lift program i into [i << 42, (i + 1) << 42)."""
    mapper = PageMapper(page_bytes=page_bytes, seed=2)
    reference = ReferencePageMapper(page_bytes=page_bytes, seed=2)
    bands = np.concatenate(
        [stream(band, 2000, 1 << 26, base=band << 42) for band in range(4)]
    )
    translate_both(mapper, reference, np.random.default_rng(3).permutation(bands), 4)


def test_several_table_doublings():
    mapper = PageMapper(page_bytes=64, seed=11)
    reference = ReferencePageMapper(page_bytes=64, seed=11)
    slots = mapper._keys.size
    translate_both(mapper, reference, np.arange(20_000) * 64 + 5, scalar_every=7, chunk=999)
    assert mapper._keys.size >= 8 * slots  # three doublings at least
    assert 2 * mapper.pages_mapped <= mapper._keys.size
    # Every mapping survived the doublings.
    again = np.arange(20_000) * 64
    np.testing.assert_array_equal(mapper.translate_batch(again), reference.translate_batch(again))


@pytest.mark.parametrize("pool", [4, 37, 1000])
def test_an_exhausted_pool_raises_at_the_same_page(pool):
    mapper = PageMapper(page_bytes=128, physical_pages=pool, seed=1)
    reference = ReferencePageMapper(page_bytes=128, physical_pages=pool, seed=1)
    addresses = np.arange(pool + 10) * 128
    translate_both(mapper, reference, addresses[: pool // 2], scalar_every=2, chunk=3)
    for side in (mapper, reference):
        with pytest.raises(RuntimeError, match="exhausted"):
            side.translate_batch(addresses)
    assert mapper.pages_mapped == reference.pages_mapped == pool
    np.testing.assert_array_equal(
        mapper.translate_batch(addresses[:pool]), reference.translate_batch(addresses[:pool])
    )
    with pytest.raises(RuntimeError, match="exhausted"):
        mapper.translate(addresses[-1])


@pytest.mark.parametrize(
    "pool", [4, 5, 1 << 10, 1 << 24, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 40]
)
def test_numpy_draws_in_bulk_as_one_at_a_time(pool):
    """The bulk draw rests on this: ``integers(0, n, size=k)`` continues the
    same stream as ``k`` scalar ``integers(0, n)`` calls, across calls."""
    bulk, scalar = np.random.default_rng(9), np.random.default_rng(9)
    drawn = np.concatenate(
        [bulk.integers(0, pool, size=size) for size in (1, 3, 1024, 7, 2048)]
    )
    assert drawn.tolist() == [int(scalar.integers(0, pool)) for _ in range(drawn.size)]


def test_rejects_a_negative_address_with_nothing_mapped():
    mapper = PageMapper(page_bytes=256, seed=0)
    mapper.translate_batch(np.array([0x100, 0x10000]))
    with pytest.raises(ValueError, match="non-negative"):
        mapper.translate_batch(np.array([0x20000, 0x30000, -4]))
    with pytest.raises(ValueError, match="non-negative"):
        mapper.translate(-1)
    assert mapper.pages_mapped == 2


@pytest.mark.parametrize("bad", ["core", "address"])
def test_a_bad_trace_slice_changes_nothing(tiny_shared_system, bad):
    system = TiledCMP(
        tiny_shared_system, cuckoo_factory(tiny_shared_system, ways=4, provisioning=1.0)
    )
    system.access_batch([0, 1], [0x100, 0x40000], [False, True], [False, False])
    cores, addresses = [0, 1, 2], [0x80000, 0xC0000, 0x100000]
    if bad == "core":
        cores[2] = tiny_shared_system.num_cores
    else:
        addresses[2] = -64
    before = (system.page_mapper.pages_mapped, system.accesses_processed)
    with pytest.raises(IndexError if bad == "core" else ValueError):
        system.access_batch(cores, addresses, [False] * 3, [False] * 3)
    assert (system.page_mapper.pages_mapped, system.accesses_processed) == before == (2, 2)


def test_translate_trace_fills_the_drains_rows():
    """Blocks, slice-local addresses, homes, tracked caches (2 * core for an
    instruction, 2 * core + 1 for data, with a shift of one) and writes."""
    mapper = PageMapper(page_bytes=4096, seed=3)
    reference = ReferencePageMapper(page_bytes=4096, seed=3)
    addresses = stream(4, 300, 1 << 22)
    cores = np.arange(300, dtype=np.int64) % 4
    writes, instrs = cores % 3 == 0, cores % 2 == 1
    for shift in (0, 1):
        trace = mapper.translate_trace(cores, addresses, writes, instrs, (6, 3, 4, shift))
        blocks = reference.translate_batch(addresses) >> 6
        caches = cores * 2 + ~instrs if shift else cores
        expected = [blocks, blocks // 3, blocks % 3, caches, writes]
        np.testing.assert_array_equal(trace, np.array(expected, dtype=np.int64))
