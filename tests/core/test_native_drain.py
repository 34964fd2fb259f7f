"""The compiled drain against the reference protocol.

``TiledCMP.access_batch`` runs every chunk through ``drain`` in
``repro/core/_kernels.c``, the simulator's one definition of the protocol.
These tests hold it to the handler loop of ``tests/coherence/
reference_protocol.py`` on random geometries, the stashed cuckoo included,
comparing canonical state (``reference_protocol.canonical_state``), and
check the drain's reference counting and bounds checks.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.paging import PageMapper
from repro.coherence.system import TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core import native
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

# Loaded by path: the oracle lives beside the coherence suites.
_SPEC = importlib.util.spec_from_file_location(
    "reference_protocol",
    Path(__file__).parents[1] / "coherence" / "reference_protocol.py",
)
reference_protocol = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference_protocol)
canonical_state = reference_protocol.canonical_state


def _system(organization, ways, sets, max_attempts=32, level=CacheLevel.L1, stash=0):
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
        if organization == "stashed":
            return StashedCuckooDirectory(
                num_caches, num_sets=sets, num_ways=ways, stash_entries=stash,
                max_insertion_attempts=max_attempts,
            )
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


def _run_reference(system, stream, start=0, stop=None):
    handlers = reference_protocol.Handlers(system)
    for access in zip(*(field[start:stop] for field in stream)):
        handlers.access(*access)


@settings(max_examples=60, deadline=None)
@given(
    organization=st.sampled_from(["cuckoo", "cuckoo-strong", "stashed", "sparse", "skewed"]),
    ways=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16]),
    sets=st.sampled_from([1, 2, 4]),
    max_attempts=st.integers(1, 40),
    stash=st.integers(0, 4),
    level=st.sampled_from([CacheLevel.L1, CacheLevel.L2]),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(1, 239), max_size=6),
)
def test_compiled_drain_matches_handlers(
    organization, ways, sets, max_attempts, stash, level, seed, cuts
):
    if organization in ("cuckoo", "cuckoo-strong", "stashed"):
        # 16-way tables are LRU ones (sparse, skewed) only.
        ways = min(max(ways, 2), 8)
    stream = _stream(seed, 240, blocks=6 * ways * sets + 8)
    drained = _system(organization, ways, sets, max_attempts, level, stash)
    reference = _system(organization, ways, sets, max_attempts, level, stash)
    position = 0
    for stop in sorted(set(cuts)) + [240]:
        drained.access_batch(*stream, position, stop)
        _run_reference(reference, stream, position, stop)
        position = stop
        assert canonical_state(drained) == canonical_state(reference), f"chunk ending {stop}"


def _refcounts(system):
    """Reference counts of the non-interned keys and every sharer set the
    caches, tables and stashes hold, slot by slot."""
    counts = []
    for cache in system.tracked_caches:
        counts.append([sys.getrefcount(tag) for tag in cache._tags if tag > 256])
    for slice_ in system.directories:
        table = slice_.table
        for way_keys, way_values in zip(table._keys, table._values):
            counts.append([sys.getrefcount(key) for key in way_keys if key > 256])
            counts.append([sys.getrefcount(v) for v in way_values if v is not None])
        counts.append([sys.getrefcount(pooled) for pooled in slice_._sharer_pool])
        for key, sharers in getattr(slice_, "_stash", {}).items():
            counts.append([sys.getrefcount(key), sys.getrefcount(sharers)])
    return counts


@pytest.mark.parametrize("organization", ["cuckoo", "sparse", "stashed"])
def test_drain_keeps_reference_counts(organization, monkeypatch):
    """Repeated drains leave every held key and sharer set with the
    references the handlers leave, and hold none of the state they borrow.
    The stashed row's stream parks, overflows and re-inserts."""
    stream = _stream(5, 3000, blocks=400)
    stream = (stream[0], [a + (1 << 16) for a in stream[1]], *stream[2:])
    drained = _system(organization, 2, 4, max_attempts=5, stash=2)
    reference = _system(organization, 2, 4, max_attempts=5, stash=2)
    drained.access_batch(*stream, 0, 500)
    slice_ = drained.directories[0]
    cache = drained.tracked_caches[0]
    borrowed = [
        drained._hops, cache._tags, cache._location, slice_.table._keys,
        slice_.table._locator, slice_.table._way_fns, slice_._sharer_pool,
    ]
    if organization == "stashed":
        borrowed.append(slice_._stash)
    before = [sys.getrefcount(obj) for obj in borrowed]
    for start in range(500, 3000, 500):
        drained.access_batch(*stream, start, start + 500)
    reinserted = []
    if organization == "stashed":
        scan = StashedCuckooDirectory._drain_stash

        def counted_scan(directory):
            parked = len(directory._stash)
            scan(directory)
            reinserted.append(parked - len(directory._stash))

        monkeypatch.setattr(StashedCuckooDirectory, "_drain_stash", counted_scan)
    _run_reference(reference, stream)
    assert canonical_state(drained) == canonical_state(reference)
    assert _refcounts(drained) == _refcounts(reference)
    assert any(count for count in _refcounts(drained))
    assert [sys.getrefcount(obj) for obj in borrowed] == before
    if organization == "stashed":
        stats = drained.directory_stats()
        assert sum(d.stash_insertions for d in drained.directories) > 0
        assert stats.forced_invalidations > 0  # every one an overflow
        assert sum(reinserted) > 0


def test_freed_stash_entries_are_pooled():
    """A stash entry whose last sharer leaves is freed and its sharer set
    pooled, as the directory API pools it: after every access the pools
    hold as many sets as the oracle's."""
    stream = _stream(5, 1500, blocks=400)
    drained = _system("stashed", 2, 4, max_attempts=5, stash=2)
    reference = _system("stashed", 2, 4, max_attempts=5, stash=2)
    handlers = reference_protocol.Handlers(reference)
    pooled = 0
    for position, access in enumerate(zip(*stream)):
        parked = [{id(sets) for sets in d._stash.values()} for d in drained.directories]
        drained.access_batch(*stream, position, position + 1)
        handlers.access(*access)
        assert [len(d._sharer_pool) for d in drained.directories] == [
            len(d._sharer_pool) for d in reference.directories
        ], f"access {position}"
        pooled += sum(
            any(id(sets) in ids for sets in d._sharer_pool)
            for d, ids in zip(drained.directories, parked)
        )
    assert pooled > 0
    assert canonical_state(drained) == canonical_state(reference)


@pytest.mark.parametrize(
    "corrupt,error",
    [("locator", IndexError), ("negative", IndexError), ("frame", IndexError),
     ("stash", TypeError)],
    ids=["locator", "negative", "frame", "stash"],
)
def test_corrupted_index_raises_index_error(corrupt, error):
    """Corrupt state raises, never crashes: an out-of-range index raises
    IndexError, and a stash value that is not a sharer set TypeError."""
    system = _system("stashed" if corrupt == "stash" else "cuckoo", 2, 4, stash=2)
    stream = _stream(3, 200, blocks=20)
    system.access_batch(*stream, 0, 100)
    block = system.block_address(stream[1][100])
    home = system.directories[system.home_slice(block)]
    cache = system.tracked_caches[system.tracked_cache_id(stream[0][100], stream[3][100])]
    local = system.slice_local_address(block)
    if corrupt == "frame":
        cache._location[block] = 10**6
    else:
        if corrupt == "stash":
            home._stash[local] = object()
        else:
            home.table._locator[local] = (0, 10**6 if corrupt == "locator" else -1)
        cache._location.pop(block, None)  # a miss reaches the directory
        if block in cache._tags:
            cache._tags[cache._tags.index(block)] = -1
    with pytest.raises(error):
        system.access_batch(*stream, 100, 101)


def test_drain_rejects_bad_arguments():
    system = _system("cuckoo", 2, 4)
    with pytest.raises(TypeError):
        native.KERNELS.drain((), (), None, (), None, None, None)
    with pytest.raises(TypeError):
        native.KERNELS.drain(
            (), (), None, (1, 1, 1, 1, 0, True, object, 1, 1),
            np.zeros((6, 3), dtype=np.int32), np.zeros((4, 4), dtype=np.int64),
            np.zeros((1, 15), dtype=np.int64),
        )
    assert system.accesses_processed == 0


@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2], ids=["L1", "L2"])
def test_flushed_cache_drains_on(level):
    """The drain holds each cache's lists from construction on, so a flush
    between chunks must reset them in place: the drain then counts the
    flushed sets as empty, as the handlers do."""
    stream = _stream(21, 1200, blocks=90)
    drained = _system("cuckoo", 4, 4, level=level)
    reference = _system("cuckoo", 4, 4, level=level)
    drained.access_batch(*stream, 0, 600)
    _run_reference(reference, stream, 0, 600)
    for system in (drained, reference):
        assert system.tracked_caches[1].flush()
    drained.access_batch(*stream, 600, 1200)
    _run_reference(reference, stream, 600, 1200)
    assert canonical_state(drained) == canonical_state(reference)
