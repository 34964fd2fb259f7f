"""The compiled drain against the handlers.

``TiledCMP.access_batch`` runs every chunk of a supported system (a plain
table-backed directory in every slice) through
``drain`` in ``repro/core/_kernels.c`` when the library loaded, and
through the handlers otherwise; the handlers are the reference.  These
tests hold the two to the same deep state on random geometries, check the
drain's reference counting and bounds checks, and check the fallback to
the handler loop.  Nothing selects a path but the loader; the fallback
test removes the drain by monkeypatching ``system._drain``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.coherence import system as system_module
from repro.coherence.paging import PageMapper
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

COMPILED = system_module.DRAIN == "compiled"
needs_drain = pytest.mark.skipif(not COMPILED, reason="compiled drain not loaded")


def _system(organization, ways, sets, max_attempts=32, level=CacheLevel.L1):
    config = SystemConfig(
        num_cores=4,
        l1_config=CacheConfig(size_bytes=512, associativity=2),
        l2_config=CacheConfig(size_bytes=2048, associativity=4),
        tracked_level=level,
        page_bytes=256,
    )

    def factory(num_caches, slice_id):
        if organization == "sparse":
            return SparseDirectory(num_caches, num_sets=sets, num_ways=ways)
        if organization == "skewed":
            return SkewedDirectory(num_caches, num_sets=sets, num_ways=ways)
        family = (
            StrongHashFamily(ways, sets, seed=slice_id)
            if organization == "cuckoo-strong"
            else None
        )
        return CuckooDirectory(
            num_caches, num_sets=sets, num_ways=ways, hash_family=family,
            max_insertion_attempts=max_attempts,
        )

    return TiledCMP(config, factory, page_mapper=PageMapper(page_bytes=256, seed=0))


def _stream(seed, length, blocks):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 4, length).tolist(),
        (rng.integers(0, blocks, length) * 64).tolist(),
        (rng.random(length) < 0.35).tolist(),
        (rng.random(length) < 0.1).tolist(),
    )


def _deep_state(system):
    """Statistics, flat cache lists, tables, pools and indices caches."""
    directory = system.directory_stats()
    caches = list(system.tracked_caches) + list(system.l2_banks or ())
    tables = []
    for slice_ in system.directories:
        table = slice_.table
        tables.append((
            vars(slice_.stats),
            [list(way) for way in table._keys],
            [[None if v is None else v._mask for v in way] for way in table._values],
            dict(table._locator), table._size, table._start_way, table._clock,
            None if table._stamps is None else [list(way) for way in table._stamps],
            None if table._indices_cache is None
            else [(k, tuple(v)) for k, v in table._indices_cache.items()],
            [pooled._mask for pooled in slice_._sharer_pool],
        ))
    return (
        vars(directory),
        [
            (vars(c.stats), dict(c._location), list(c._tags), list(c._states),
             list(c._dirty), list(c._stamps), list(c._set_counts), c._clock)
            for c in caches
        ],
        (dict(system.traffic.messages), system.traffic.hops,
         system.traffic.bytes_transferred),
        tables,
    )


@needs_drain
@settings(max_examples=60, deadline=None)
@given(
    organization=st.sampled_from(["cuckoo", "cuckoo-strong", "sparse", "skewed"]),
    ways=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16]),
    sets=st.sampled_from([1, 2, 4]),
    max_attempts=st.integers(1, 40),
    level=st.sampled_from([CacheLevel.L1, CacheLevel.L2]),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(1, 239), max_size=6),
)
def test_compiled_drain_matches_handlers(
    organization, ways, sets, max_attempts, level, seed, cuts
):
    if organization.startswith("cuckoo"):
        # 16-way tables are LRU ones (sparse, skewed) only.
        ways = min(max(ways, 2), 8)
    stream = _stream(seed, 240, blocks=6 * ways * sets + 8)
    drained = _system(organization, ways, sets, max_attempts, level)
    reference = _system(organization, ways, sets, max_attempts, level)
    position = 0
    for stop in sorted(set(cuts)) + [240]:
        drained.access_batch(*stream, position, stop)
        for access in zip(*(field[position:stop] for field in stream)):
            reference.access(MemoryAccess(*access))
        position = stop
        assert _deep_state(drained) == _deep_state(reference), f"chunk ending {stop}"


def _refcounts(system):
    """Reference counts of the non-interned keys and every sharer set the
    caches and tables hold, slot by slot."""
    counts = []
    for cache in system.tracked_caches:
        counts.append([sys.getrefcount(tag) for tag in cache._tags if tag > 256])
    for slice_ in system.directories:
        table = slice_.table
        for way_keys, way_values in zip(table._keys, table._values):
            counts.append([sys.getrefcount(key) for key in way_keys if key > 256])
            counts.append([sys.getrefcount(v) for v in way_values if v is not None])
        counts.append([sys.getrefcount(pooled) for pooled in slice_._sharer_pool])
    return counts


@needs_drain
@pytest.mark.parametrize("organization", ["cuckoo", "sparse"])
def test_drain_keeps_reference_counts(organization):
    """Repeated drains leave every held key and sharer set with the
    references the handlers leave, and hold none of the state they borrow."""
    stream = _stream(5, 3000, blocks=400)
    stream = (stream[0], [a + (1 << 16) for a in stream[1]], *stream[2:])
    drained = _system(organization, 2, 4, max_attempts=5)
    reference = _system(organization, 2, 4, max_attempts=5)
    drained.access_batch(*stream, 0, 500)
    slice_ = drained.directories[0]
    cache = drained.tracked_caches[0]
    borrowed = [
        drained._drain_vector_support[1], cache._tags, cache._location,
        slice_.table._keys, slice_.table._locator, slice_.table._way_fns,
        slice_._sharer_pool,
    ]
    before = [sys.getrefcount(obj) for obj in borrowed]
    for start in range(500, 3000, 500):
        drained.access_batch(*stream, start, start + 500)
    for access in zip(*stream):
        reference.access(MemoryAccess(*access))
    assert _deep_state(drained) == _deep_state(reference)
    assert _refcounts(drained) == _refcounts(reference)
    assert any(count for count in _refcounts(drained))
    assert [sys.getrefcount(obj) for obj in borrowed] == before


@needs_drain
@pytest.mark.parametrize("corrupt", ["locator", "negative", "frame"])
def test_corrupted_index_raises_index_error(corrupt):
    system = _system("cuckoo", 2, 4)
    stream = _stream(3, 200, blocks=20)
    system.access_batch(*stream, 0, 100)
    block = system.block_address(stream[1][100])
    home = system.directories[system.home_slice(block)]
    cache = system.tracked_caches[system.tracked_cache_id(stream[0][100], stream[3][100])]
    local = system.slice_local_address(block)
    if corrupt == "frame":
        cache._location[block] = 10**6
    else:
        home.table._locator[local] = (0, 10**6 if corrupt == "locator" else -1)
        cache._location.pop(block, None)  # a miss reaches the directory
        if block in cache._tags:
            cache._tags[cache._tags.index(block)] = -1
    with pytest.raises(IndexError):
        system.access_batch(*stream, 100, 101)


@needs_drain
def test_drain_rejects_bad_arguments():
    system = _system("cuckoo", 2, 4)
    with pytest.raises(TypeError):
        system_module._drain((), (), None, (), None, None, None)
    with pytest.raises(TypeError):
        system_module._drain(
            (), (), None, (1, 1, 1, 1, 0, True, object, 1, 1),
            np.zeros((6, 3), dtype=np.int32), np.zeros((4, 4), dtype=np.int64),
            np.zeros((1, 15), dtype=np.int64),
        )
    assert system.accesses_processed == 0


def test_without_the_drain_the_handler_loop_runs(monkeypatch):
    stream = _stream(9, 600, blocks=60)
    compiled = _system("cuckoo", 2, 4, max_attempts=3)
    for start in range(0, 600, 150):
        compiled.access_batch(*stream, start, start + 150)
    monkeypatch.setattr(system_module, "_drain", None)
    obs.enable()
    obs.reset()
    try:
        handled = _system("cuckoo", 2, 4, max_attempts=3)
        for start in range(0, 600, 150):
            handled.access_batch(*stream, start, start + 150)
        counters = obs.REGISTRY
        assert counters.counter("sim.drain.scalar_fallback").value == 600
        assert counters.counter("sim.drain.vector_resolved").value == 0
    finally:
        obs.disable()
        obs.reset()
    assert _deep_state(handled) == _deep_state(compiled)
