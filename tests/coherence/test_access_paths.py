"""Differential suite: ``access_batch`` against the reference protocol.

The simulator defines the MESI protocol once, as the compiled drain that
``access_batch`` runs every chunk through.  This suite holds it to the
handler loop of ``reference_protocol.py`` (``tests/core/test_native_drain.py``
adds random geometries):

* **reference** — the handlers, one access at a time, on a fresh system;
* **candidate** — ``access_batch`` at chunk sizes 1, 3, 17 and 4096, plus a
  two-chunk split at every offset (through ``start``/``stop``);
* **cases** — every organization the library builds (cuckoo with the
  skewing and the strong hash, stashed cuckoo, sparse, skewed), the 3- and
  8-way tables of the paper's sweeps, both tracked levels, and tight
  tables that force invalidations, including cuckoo walks longer than the
  ways and stashes that park, overflow and re-insert;
* **checks** — equal canonical state (``reference_protocol.
  canonical_state``: statistics, cache frames, table slots with their LRU
  stamps, stash entries), an INV_ACK for every INVALIDATE sent, and a
  clean ``check_inclusion`` after every chunk (except on the long-walk
  cases, where inclusion is known not to hold);
* **walks** — the tight cuckoo cases also run the handlers under the
  Python reference walk against ``access_batch`` (whose drain walks in C),
  with equal state.

The obs counters prove that every access of every case, the stashed ones
included, runs through the compiled drain.
"""

import numpy as np
import pytest
from reference_protocol import Handlers, canonical_state, walk_python

from repro import obs
from repro.cache.cache import STATE_MODIFIED
from repro.coherence.messages import MessageType
from repro.coherence.paging import PageMapper
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.cuckoo_hash import CuckooHashTable
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

CHUNK_SIZES = (1, 3, 17, 4096)


def _config(level=CacheLevel.L1, cores=4):
    return SystemConfig(
        num_cores=cores,
        l1_config=CacheConfig(size_bytes=1024, associativity=2),
        l2_config=CacheConfig(size_bytes=8192, associativity=16),
        tracked_level=level,
        page_bytes=256,
    )


# -- organizations: name -> directory factory (num_caches, slice_id)


def _cuckoo(n, s):
    return CuckooDirectory(num_caches=n, num_sets=64, num_ways=4)


def _cuckoo_strong(n, s):
    return CuckooDirectory(
        num_caches=n, num_sets=64, num_ways=4,
        hash_family=StrongHashFamily(num_ways=4, num_sets=64, seed=9),
    )


# The other way counts the paper's sweeps build (Figure 9: 3 and 8 ways;
# Figure 12: 3-way Cuckoo at L2 and 8-way Sparse).


def _cuckoo_3way(n, s):
    return CuckooDirectory(num_caches=n, num_sets=64, num_ways=3)


def _cuckoo_8way(n, s):
    return CuckooDirectory(num_caches=n, num_sets=32, num_ways=8)


# Tight cuckoo tables: walks cut off constantly, so forced invalidations
# land in the middle of a chunk.  The first three cap the walk at one
# attempt per way.  The walk3/walk32 tables walk longer than their ways, as the
# paper's tight points do (32 attempts): such a walk can come back round and
# evict the key it is inserting, a protocol gap (see the xfail test below)
# that breaks inclusion.  Both paths must still agree on it exactly, so these
# cases compare deep state but skip ``check_inclusion``.


def _cuckoo_tight(n, s):
    return CuckooDirectory(
        num_caches=n, num_sets=8, num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=2,
    )


def _cuckoo_tight_skewing(n, s):
    return CuckooDirectory(
        num_caches=n, num_sets=4, num_ways=2, max_insertion_attempts=2
    )


def _cuckoo_tight_3way(n, s):
    return CuckooDirectory(
        num_caches=n, num_sets=4, num_ways=3, max_insertion_attempts=3
    )


def _cuckoo_tight_walk3(n, s):
    return CuckooDirectory(
        num_caches=n, num_sets=8, num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=3,
    )


def _cuckoo_tight_walk32(n, s):
    return CuckooDirectory(num_caches=n, num_sets=4, num_ways=2)


def _stashed(n, s):
    return StashedCuckooDirectory(
        num_caches=n, num_sets=64, num_ways=4, stash_entries=4
    )


def _stashed_tight(n, s):
    return StashedCuckooDirectory(
        num_caches=n, num_sets=4, num_ways=2, stash_entries=2,
        max_insertion_attempts=3,
    )


def _sparse(n, s):
    return SparseDirectory(num_caches=n, num_sets=16, num_ways=4)


def _sparse_8way(n, s):
    return SparseDirectory(num_caches=n, num_sets=16, num_ways=8)


def _sparse_tight(n, s):
    return SparseDirectory(num_caches=n, num_sets=2, num_ways=2)


def _skewed(n, s):
    return SkewedDirectory(num_caches=n, num_sets=16, num_ways=4)


def _skewed_tight(n, s):
    return SkewedDirectory(num_caches=n, num_sets=4, num_ways=2)


ORGANIZATIONS = {
    "cuckoo": _cuckoo,
    "cuckoo-strong": _cuckoo_strong,
    "cuckoo-3way": _cuckoo_3way,
    "cuckoo-8way": _cuckoo_8way,
    "cuckoo-tight": _cuckoo_tight,
    "cuckoo-tight-skewing": _cuckoo_tight_skewing,
    "cuckoo-tight-3way": _cuckoo_tight_3way,
    "cuckoo-tight-walk3": _cuckoo_tight_walk3,
    "cuckoo-tight-walk32": _cuckoo_tight_walk32,
    "stashed": _stashed,
    "stashed-tight": _stashed_tight,
    "sparse": _sparse,
    "sparse-8way": _sparse_8way,
    "sparse-tight": _sparse_tight,
    "skewed": _skewed,
    "skewed-tight": _skewed_tight,
}
TIGHT = ("cuckoo-tight", "cuckoo-tight-skewing", "cuckoo-tight-3way",
         "cuckoo-tight-walk3", "cuckoo-tight-walk32", "stashed-tight",
         "sparse-tight", "skewed-tight")
# Walks longer than the ways: inclusion does not hold (the self-evicting walk).
INCLUSION_GAP = ("cuckoo-tight-walk3", "cuckoo-tight-walk32")
LEVELS = (CacheLevel.L1, CacheLevel.L2)


def _make_system(organization, level):
    return TiledCMP(
        _config(level),
        ORGANIZATIONS[organization],
        page_mapper=PageMapper(page_bytes=256, seed=0),
    )


# -- streams --------------------------------------------------------------------


def _mixed_stream(seed=11, rounds=160, num_cores=4, blocks=28):
    """Every protocol event: read/write/fetch runs, upgrades, sharing, ping-pong."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(rounds):
        core = int(rng.integers(num_cores))
        block = int(rng.integers(blocks)) * 64
        kind = int(rng.integers(6))
        run = int(rng.integers(1, 7))
        if kind == 0:
            stream += [(core, block, False, False)] * run
        elif kind == 1:
            stream += [(core, block, True, False)] * run
        elif kind == 2:  # S/E -> M upgrade after a read run
            stream += [(core, block, False, False)] * run
            stream.append((core, block, True, False))
        elif kind == 3:  # widely shared, then one writer invalidates
            for reader in range(num_cores):
                stream.append((reader, block, False, False))
            stream.append((core, block, True, False))
        elif kind == 4:  # instruction-fetch run (the L1I in Shared-L2)
            stream += [(core, block, False, True)] * run
        else:  # ping-pong
            other = (core + 1) % num_cores
            for i in range(run):
                stream.append((core if i % 2 == 0 else other, block, i % 2 == 1, False))
    return stream


def _random_stream(seed, n, blocks):
    rng = np.random.default_rng(seed)
    return list(
        zip(
            rng.integers(0, 4, n).tolist(),
            (rng.integers(0, blocks, n) * 64).tolist(),
            (rng.random(n) < 0.3).tolist(),
            (rng.random(n) < 0.1).tolist(),
        )
    )


def _stream(organization):
    # Tight tables need a footprint larger than the directory to keep
    # displacement walks and forced invalidations going.
    if organization in TIGHT:
        return _mixed_stream(seed=3, rounds=140, blocks=48) + _random_stream(
            5, 500, 200
        )
    return _mixed_stream() + _random_stream(7, 400, 120)


# -- execution and deep state -----------------------------------------------------


def _assert_invalidations_acked(system):
    """Every INVALIDATE the directory sent has come back as an INV_ACK."""
    messages = system.traffic.messages
    assert messages.get(MessageType.INVALIDATE, 0) == messages.get(
        MessageType.INV_ACK, 0
    )


def _run_reference(system, stream):
    handlers = Handlers(system)
    for access in stream:
        handlers.access(*access)
        _assert_invalidations_acked(system)


def _checked_batch(system, fields, start, stop, check=True):
    system.access_batch(*fields, start, stop)
    _assert_invalidations_acked(system)
    if check:
        assert system.check_inclusion() == []


def _run_chunked(system, stream, chunk_size, check=True):
    fields = [list(field) for field in zip(*stream)]
    for start in range(0, len(stream), chunk_size):
        _checked_batch(
            system, fields, start, min(start + chunk_size, len(stream)), check
        )


def _reference_state(organization, level, stream):
    system = _make_system(organization, level)
    _run_reference(system, stream)
    if organization not in INCLUSION_GAP:
        assert system.check_inclusion() == []
    return canonical_state(system)


@pytest.fixture
def counters():
    """Telemetry on; returns a reader of the path counters."""
    obs.enable()
    obs.reset()

    def read():
        registry = obs.REGISTRY
        return {
            name: registry.counter(name).value
            for name in ("sim.drain.vector_resolved", "sim.drain.class_hits")
        }

    yield read
    obs.disable()
    obs.reset()


# -- the differential cases ---------------------------------------------------------


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
def test_chunk_sizes_match_handlers(organization, level, counters):
    stream = _stream(organization)
    reference = _reference_state(organization, level, stream)
    check = organization not in INCLUSION_GAP
    for chunk_size in CHUNK_SIZES:
        before = counters()
        system = _make_system(organization, level)
        _run_chunked(system, stream, chunk_size, check)
        assert canonical_state(system) == reference, f"chunk size {chunk_size}"
        after = counters()
        vector = after["sim.drain.vector_resolved"] - before["sim.drain.vector_resolved"]
        assert vector == len(stream)


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
def test_split_at_every_offset_matches_handlers(organization, level):
    stream = _mixed_stream(seed=17, rounds=30, blocks=12)
    reference = _reference_state(organization, level, stream)
    check = organization not in INCLUSION_GAP
    fields = [list(field) for field in zip(*stream)]
    for offset in range(1, len(stream)):
        system = _make_system(organization, level)
        _checked_batch(system, fields, 0, offset, check)
        _checked_batch(system, fields, offset, len(stream), check)
        assert canonical_state(system) == reference, f"split at {offset}"


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
def test_streams_send_invalidations_and_each_is_acked(organization, level):
    """The INVALIDATE/INV_ACK pairing checked after every chunk is not
    vacuous: each case's stream sends invalidations on both paths (forced
    ones too, on the tight tables), and every one comes back acked."""
    stream = _stream(organization)
    reference = _make_system(organization, level)
    _run_reference(reference, stream)
    drained = _make_system(organization, level)
    _run_chunked(drained, stream, 4096, check=False)
    for system in (reference, drained):
        assert system.traffic.messages.get(MessageType.INVALIDATE, 0) > 0
        _assert_invalidations_acked(system)
        if organization in TIGHT:
            assert system.directory_stats().forced_invalidations > 0


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", INCLUSION_GAP)
def test_long_walk_cases_reach_the_inclusion_gap(organization, level):
    """The uncapped tight cases really walk past their ways and self-evict."""
    system = _make_system(organization, level)
    _run_chunked(system, _stream(organization), 4096, check=False)
    histogram = system.directory_stats().attempt_histogram
    assert max(histogram) > 2  # both tables have two ways
    assert any("not tracked" in v for v in system.check_inclusion())


@pytest.mark.parametrize(
    "organization", ["cuckoo-tight", "cuckoo-tight-3way", *INCLUSION_GAP]
)
def test_tight_cuckoo_forced_invalidations_mid_chunk_match_handlers(organization):
    """Long chunks full of forced invalidations still match the handlers."""
    stream = _random_stream(11, 3000, 400)
    reference = _make_system(organization, CacheLevel.L1)
    _run_reference(reference, stream)
    assert reference.directory_stats().forced_invalidations > 0
    check = organization not in INCLUSION_GAP
    for chunk_size in (64, 512):
        system = _make_system(organization, CacheLevel.L1)
        _run_chunked(system, stream, chunk_size, check)
        assert canonical_state(system) == canonical_state(reference), (
            f"chunk size {chunk_size}"
        )


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize(
    "organization", ["cuckoo-tight", "cuckoo-tight-3way", *INCLUSION_GAP]
)
def test_long_walks_match_under_both_walks(organization, level, monkeypatch):
    """The handlers under the Python reference walk and ``access_batch``
    (the compiled drain, which calls the compiled walk) leave identical
    state."""
    stream = _stream(organization)
    drained = _make_system(organization, level)
    _run_chunked(drained, stream, 512, check=False)
    monkeypatch.setattr(CuckooHashTable, "walk", walk_python)
    reference = _make_system(organization, level)
    _run_reference(reference, stream)
    assert canonical_state(drained) == canonical_state(reference)


def test_hit_run_retires_in_the_drain(counters):
    """A pure-hit chunk retires every access as a drain hit."""
    core, block = 1, 7 * 64
    warm = [(core, block, False, False), (core, block, True, False)]
    run = [(core, block, False, False)] * 500 + [(core, block, True, False)] * 300
    reference = _make_system("cuckoo", CacheLevel.L1)
    _run_reference(reference, warm + run)
    system = _make_system("cuckoo", CacheLevel.L1)
    _run_chunked(system, warm, 4096)
    before = counters()
    _run_chunked(system, run, 4096)
    assert counters()["sim.drain.class_hits"] - before["sim.drain.class_hits"] == len(run)
    assert canonical_state(system) == canonical_state(reference)


# -- API behaviour of access_batch --------------------------------------------------


def test_numpy_and_list_chunks_are_identical():
    stream = _mixed_stream()
    cores, addresses, writes, instrs = (list(f) for f in zip(*stream))
    as_lists = _make_system("cuckoo", CacheLevel.L1)
    as_arrays = _make_system("cuckoo", CacheLevel.L1)
    as_lists.access_batch(cores, addresses, writes, instrs)
    as_arrays.access_batch(
        np.asarray(cores, dtype=np.int32),
        np.asarray(addresses, dtype=np.int64),
        np.asarray(writes, dtype=np.bool_),
        np.asarray(instrs, dtype=np.bool_),
    )
    assert canonical_state(as_arrays) == canonical_state(as_lists)


@pytest.mark.parametrize("organization", ["cuckoo", "sparse"])
def test_chunk_validation_rejects_out_of_range_cores_before_executing(organization):
    system = _make_system(organization, CacheLevel.L1)
    for bad_core in (-1, 4, 99):
        with pytest.raises(IndexError):
            system.access_batch([0, bad_core], [0x100, 0x200], [False, False], [False, False])
        # Validation is chunk-level: nothing from the bad chunk executed.
        assert system.accesses_processed == 0


# -- batched page translation ------------------------------------------------------


class TestTranslateBatch:
    @pytest.mark.parametrize("page_bytes", [256, 2730])  # pow2 and non-pow2
    def test_matches_scalar_translation(self, page_bytes):
        scalar = PageMapper(page_bytes=page_bytes, seed=3)
        batched = PageMapper(page_bytes=page_bytes, seed=3)
        rng = np.random.default_rng(11)
        stream = rng.integers(0, 1 << 20, size=700)
        stream[100:200] = stream[:100]  # guaranteed repeats
        expected = [scalar.translate(int(a)) for a in stream]
        out = []
        for start in range(0, len(stream), 64):
            out.extend(batched.translate_batch(stream[start : start + 64]).tolist())
        assert out == expected
        assert batched.pages_mapped == scalar.pages_mapped

    def test_interleaves_with_scalar_translation(self):
        scalar = PageMapper(page_bytes=512, seed=5)
        mixed = PageMapper(page_bytes=512, seed=5)
        rng = np.random.default_rng(13)
        stream = rng.integers(0, 1 << 18, size=300)
        expected = [scalar.translate(int(a)) for a in stream]
        out = []
        for i, start in enumerate(range(0, len(stream), 50)):
            segment = stream[start : start + 50]
            if i % 2 == 0:
                out.extend(mixed.translate_batch(segment).tolist())
            else:
                out.extend(mixed.translate(int(a)) for a in segment)
        assert out == expected

    def test_rejects_negative_addresses(self):
        mapper = PageMapper(page_bytes=256, seed=0)
        with pytest.raises(ValueError):
            mapper.translate_batch(np.asarray([0x100, -4]))

    def test_empty_batch(self):
        mapper = PageMapper(page_bytes=256, seed=0)
        assert mapper.translate_batch(np.asarray([], dtype=np.int64)).size == 0


# -- check_inclusion: the invariant oracle itself ----------------------------------


def _shared_block_system(organization="cuckoo"):
    """Two cores read one block: both L1Ds hold it in S, the directory agrees."""
    system = _make_system(organization, CacheLevel.L1)
    block_address = 5 * 64
    for core in (0, 2):
        system.access(MemoryAccess(core, block_address, False, False))
    block = system.block_address(block_address)
    return system, block, system.tracked_cache_id(0, False), system.tracked_cache_id(2, False)


@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
def test_check_inclusion_is_clean_and_observation_only(organization):
    system = _make_system(organization, CacheLevel.L1)
    _run_chunked(system, _stream(organization), 4096, check=False)
    before = canonical_state(system)
    violations = system.check_inclusion()
    if organization not in INCLUSION_GAP:
        assert violations == []
    assert canonical_state(system) == before


def test_check_inclusion_reports_two_modified_copies():
    system, block, first, second = _shared_block_system()
    assert system.check_inclusion() == []
    for cache_id in (first, second):
        system.tracked_caches[cache_id].set_state_code(block, STATE_MODIFIED)
    violations = system.check_inclusion()
    assert len(violations) == 1
    assert "SWMR" in violations[0] and f"{block:#x}" in violations[0]


def test_check_inclusion_reports_untracked_copy():
    system, block, first, _second = _shared_block_system()
    home = system.directories[system.home_slice(block)]
    home.remove_sharer(system.slice_local_address(block), first)
    violations = system.check_inclusion()
    assert len(violations) == 1 and "not tracked" in violations[0]


@pytest.mark.parametrize("organization", ["cuckoo", "stashed", "sparse", "skewed"])
def test_check_inclusion_reports_stale_sharer(organization):
    system, block, first, _second = _shared_block_system(organization)
    system.tracked_caches[first].invalidate(block)  # the directory is not told
    violations = system.check_inclusion()
    assert len(violations) == 1 and "reported in caches" in violations[0]


@pytest.mark.parametrize("organization", ["cuckoo", "stashed", "sparse", "skewed"])
def test_check_inclusion_reports_stale_entry(organization):
    system, block, first, second = _shared_block_system(organization)
    for cache_id in (first, second):
        system.tracked_caches[cache_id].invalidate(block)  # the directory is not told
    violations = system.check_inclusion()
    assert len(violations) == 1
    assert "resident in no cache" in violations[0] and f"{block:#x}" in violations[0]


@pytest.mark.parametrize("organization", list(ORGANIZATIONS))
def test_tracked_addresses_are_exactly_the_live_entries(organization):
    """The stale-entry hook lists every live entry (stash included), once."""
    system = _make_system(organization, CacheLevel.L1)
    stream = _stream(organization)
    _run_chunked(system, stream, 4096, check=False)
    blocks = {system.block_address(address) for _core, address, _w, _i in stream}
    for slice_id, directory in enumerate(system.directories):
        tracked = directory.tracked_addresses()
        live = {
            system.slice_local_address(block)
            for block in blocks
            if system.home_slice(block) == slice_id
            and directory.lookup(system.slice_local_address(block)).found
        }
        assert len(tracked) == len(set(tracked))
        assert set(tracked) == live
    if organization == "stashed-tight":
        assert any(d.stash_occupancy for d in system.directories)


@pytest.mark.parametrize("stash_sharers", ["same", "fewer"])
def test_check_inclusion_reports_entry_in_stash_and_table(stash_sharers):
    """A block the stash and the table both hold is reported, whether or not
    the stash's copy names the same sharers as the table's."""
    system, block, first, _second = _shared_block_system("stashed")
    home = system.directories[system.home_slice(block)]
    local = system.slice_local_address(block)
    mask = home.table.get(local)
    if stash_sharers == "fewer":
        mask &= ~(1 << first)
    home._stash_keys[0], home._stash_masks[0] = local, mask
    violations = system.check_inclusion()
    held_twice = [v for v in violations if "held in 2 entries" in v]
    assert len(held_twice) == 1 and f"{block:#x}" in held_twice[0]
    if stash_sharers == "same":
        assert violations == held_twice


@pytest.mark.parametrize("organization", ["cuckoo", "stashed", "sparse", "skewed"])
def test_check_inclusion_reports_miscounted_entries(organization):
    system, block, _first, _second = _shared_block_system(organization)
    home = system.directories[system.home_slice(block)]
    home.table._meta[0] += 1  # its size
    violations = system.check_inclusion()
    assert len(violations) == 1
    assert "counts 2 entries but lists 1" in violations[0]


@pytest.mark.xfail(
    strict=True,
    reason="a cut-off displacement walk that comes back round and evicts the "
    "key it is inserting leaves the requester's fill untracked",
)
def test_walk_evicting_its_own_key_keeps_inclusion():
    """Known protocol gap, found by the strengthened oracle.

    With more walk attempts than ways, a displacement walk can revisit the
    new key's slot and discard the new key itself; the handlers then fill
    the requester's cache with a block its directory no longer tracks.
    """
    system = _make_system("cuckoo-tight-walk32", CacheLevel.L1)
    _run_chunked(system, _stream("cuckoo-tight-walk32"), 4096, check=False)
    assert system.check_inclusion() == []
