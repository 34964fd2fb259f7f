"""Differential suite: every ``access_batch`` path against the handlers.

The handlers (``TiledCMP._access_block`` and the ``_handle_*`` methods) are
the one definition of the MESI protocol.  ``access_batch`` either runs them
per access (the handler loop) or, when every slice is a plain table-backed
directory (cuckoo, sparse, skewed, in-cache) with a full bit vector, takes
the fast path: every access of the chunk through the vectorized drain in
trace order.  This suite holds both to the handlers:

* **reference** — ``access()`` per access on a fresh system;
* **candidate** — ``access_batch`` at chunk sizes 1, 3, 17 and 4096, plus a
  two-chunk split at every offset (through ``start``/``stop``);
* **cases** — every organization ``TiledCMP`` accepts (cuckoo with the
  skewing and the strong hash, stashed cuckoo, sparse, sparse with a coarse
  vector, skewed, duplicate-tag, in-cache, tagless), both tracked levels,
  and tight tables that force invalidations, including cuckoo walks longer
  than the ways;
* **checks** — equal deep state (statistics, flat cache arrays, residency,
  table internals with their LRU stamps) and a clean ``check_inclusion``
  after every chunk (except on the long-walk cases, where inclusion is
  known not to hold);
* **walks** — the tight cuckoo cases also run under both displacement
  walks, the compiled one and the Python reference, with equal deep state.

The obs counters prove which path ran: chunks of every size of the plain
table-backed organizations (cuckoo, sparse, skewed, in-cache) reach the
vector drain, while the stash, duplicate-tag, tagless and rich sharer
encodings run the handler loop.  Nothing here selects a path by hand.
"""

import numpy as np
import pytest

from repro import obs
from repro.cache.cache import STATE_MODIFIED
from repro.coherence.paging import PageMapper
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core import cuckoo_hash
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.duplicate_tag import DuplicateTagDirectory
from repro.directories.in_cache import InCacheDirectory
from repro.directories.sharers import CoarseVector
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.directories.table import TableDirectory
from repro.directories.tagless import TaglessDirectory
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


# -- organizations: name -> (factory builder taking the config, uses fast path)


def _cuckoo(config):
    return lambda n, s: CuckooDirectory(num_caches=n, num_sets=64, num_ways=4)


def _cuckoo_strong(config):
    return lambda n, s: CuckooDirectory(
        num_caches=n, num_sets=64, num_ways=4,
        hash_family=StrongHashFamily(num_ways=4, num_sets=64, seed=9),
    )


# Tight cuckoo tables: walks cut off constantly, so forced invalidations
# land in the middle of a chunk.  The first two cap the walk at one attempt
# per way.  The walk3/walk32 tables walk longer than their ways, as the
# paper's tight points do (32 attempts): such a walk can come back round and
# evict the key it is inserting, a protocol gap (see the xfail test below)
# that breaks inclusion.  Both paths must still agree on it exactly, so these
# cases compare deep state but skip ``check_inclusion``.


def _cuckoo_tight(config):
    return lambda n, s: CuckooDirectory(
        num_caches=n, num_sets=8, num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=2,
    )


def _cuckoo_tight_skewing(config):
    return lambda n, s: CuckooDirectory(
        num_caches=n, num_sets=4, num_ways=2, max_insertion_attempts=2
    )


def _cuckoo_tight_walk3(config):
    return lambda n, s: CuckooDirectory(
        num_caches=n, num_sets=8, num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=3,
    )


def _cuckoo_tight_walk32(config):
    return lambda n, s: CuckooDirectory(num_caches=n, num_sets=4, num_ways=2)


def _stashed(config):
    return lambda n, s: StashedCuckooDirectory(
        num_caches=n, num_sets=64, num_ways=4, stash_entries=4
    )


def _stashed_tight(config):
    return lambda n, s: StashedCuckooDirectory(
        num_caches=n, num_sets=4, num_ways=2, stash_entries=2,
        max_insertion_attempts=3,
    )


def _sparse(config):
    return lambda n, s: SparseDirectory(num_caches=n, num_sets=16, num_ways=4)


def _sparse_tight(config):
    return lambda n, s: SparseDirectory(num_caches=n, num_sets=2, num_ways=2)


def _sparse_coarse(config):
    # A rich sharer encoding: the table is the same, the handlers run.
    return lambda n, s: SparseDirectory(
        num_caches=n, num_sets=16, num_ways=4, sharer_cls=CoarseVector,
        num_pointers=1, vector_bits=2,
    )


def _skewed(config):
    return lambda n, s: SkewedDirectory(num_caches=n, num_sets=16, num_ways=4)


def _skewed_tight(config):
    return lambda n, s: SkewedDirectory(num_caches=n, num_sets=4, num_ways=2)


def _duplicate_tag(config):
    return lambda n, s: DuplicateTagDirectory(
        n, config.tracked_cache_config, num_slices=config.num_directory_slices
    )


def _in_cache(config):
    return lambda n, s: InCacheDirectory(
        n, config.l2_config, num_slices=config.num_directory_slices
    )


def _tagless(config):
    return lambda n, s: TaglessDirectory(
        n, config.tracked_cache_config, num_slices=config.num_directory_slices
    )


ORGANIZATIONS = {
    "cuckoo": (_cuckoo, True),
    "cuckoo-strong": (_cuckoo_strong, True),
    "cuckoo-tight": (_cuckoo_tight, True),
    "cuckoo-tight-skewing": (_cuckoo_tight_skewing, True),
    "cuckoo-tight-walk3": (_cuckoo_tight_walk3, True),
    "cuckoo-tight-walk32": (_cuckoo_tight_walk32, True),
    "stashed": (_stashed, False),
    "stashed-tight": (_stashed_tight, False),
    "sparse": (_sparse, True),
    "sparse-tight": (_sparse_tight, True),
    "sparse-coarse": (_sparse_coarse, False),
    "skewed": (_skewed, True),
    "skewed-tight": (_skewed_tight, True),
    "duplicate-tag": (_duplicate_tag, False),
    "in-cache": (_in_cache, True),
    "tagless": (_tagless, False),
}
TIGHT = ("cuckoo-tight", "cuckoo-tight-skewing", "cuckoo-tight-walk3",
         "cuckoo-tight-walk32", "stashed-tight", "sparse-tight", "skewed-tight")
# Walks longer than the ways: inclusion does not hold (the self-evicting walk).
INCLUSION_GAP = ("cuckoo-tight-walk3", "cuckoo-tight-walk32")
LEVELS = (CacheLevel.L1, CacheLevel.L2)


def _make_system(organization, level):
    config = _config(level)
    builder, _fast = ORGANIZATIONS[organization]
    return TiledCMP(
        config, builder(config), page_mapper=PageMapper(page_bytes=256, seed=0)
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


def _run_reference(system, stream):
    for core, address, is_write, is_instr in stream:
        system.access(MemoryAccess(core, address, is_write, is_instr))


def _checked_batch(system, fields, start, stop, check=True):
    system.access_batch(*fields, start, stop)
    if check:
        assert system.check_inclusion() == []


def _run_chunked(system, stream, chunk_size, check=True):
    fields = [list(field) for field in zip(*stream)]
    for start in range(0, len(stream), chunk_size):
        _checked_batch(
            system, fields, start, min(start + chunk_size, len(stream)), check
        )


def _snapshot(system):
    directory = system.directory_stats()
    return {
        "accesses": system.accesses_processed,
        "dir": (
            directory.lookups,
            directory.lookup_hits,
            directory.lookup_misses,
            directory.insertions,
            directory.insertion_attempts,
            dict(directory.attempt_histogram),
            directory.sharer_additions,
            directory.sharer_removals,
            directory.entry_removals,
            directory.forced_invalidations,
            directory.forced_invalidation_messages,
            directory.invalidate_all_operations,
            directory.bits_read,
            directory.bits_written,
        ),
        "entries": [d.entry_count() for d in system.directories],
        "caches": [
            (
                c.stats.hits,
                c.stats.misses,
                c.stats.evictions,
                c.stats.dirty_evictions,
                c.stats.invalidations_received,
            )
            for c in system.tracked_caches
        ],
        "banks": None
        if system.l2_banks is None
        else [
            (b.stats.hits, b.stats.misses, b.stats.evictions, b.stats.dirty_evictions)
            for b in system.l2_banks
        ],
        "traffic": (
            dict(system.traffic.messages),
            system.traffic.hops,
            system.traffic.bytes_transferred,
        ),
        "resident": [
            sorted((a, c.state_of(a).value, c.probe(a).dirty) for a in c.resident_addresses())
            for c in system.tracked_caches
        ],
    }


def _flat_arrays(caches):
    return [
        (
            list(c._tags), list(c._states), list(c._dirty), list(c._stamps),
            list(c._set_counts), c._clock,
        )
        for c in caches
    ]


def _deep_directory_state(system):
    """Table internals (LRU stamps, any stash) the public snapshot misses."""
    out = []
    for directory in system.directories:
        if not isinstance(directory, TableDirectory):
            return None
        table = directory.table
        out.append(
            (
                [list(way_keys) for way_keys in table._keys],
                [
                    [None if v is None else v._mask for v in way_values]
                    for way_values in table._values
                ],
                dict(table._locator),
                table._size,
                table._start_way,
                None if table._stamps is None else [list(w) for w in table._stamps],
                table._clock,
                [
                    (key, sharers._mask)
                    for key, sharers in getattr(directory, "_stash", {}).items()
                ],
            )
        )
    return out


def _deep_state(system):
    return (
        _snapshot(system),
        _flat_arrays(system.tracked_caches),
        _flat_arrays(system.l2_banks or ()),
        _deep_directory_state(system),
    )


def _reference_state(organization, level, stream):
    system = _make_system(organization, level)
    _run_reference(system, stream)
    if organization not in INCLUSION_GAP:
        assert system.check_inclusion() == []
    return _deep_state(system)


@pytest.fixture
def counters():
    """Telemetry on; returns a reader of the path counters."""
    obs.enable()
    obs.reset()

    def read():
        registry = obs.REGISTRY
        return {
            name: registry.counter(name).value
            for name in (
                "sim.drain.vector_resolved",
                "sim.drain.scalar_fallback",
                "sim.drain.class_hits",
            )
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
        assert _deep_state(system) == reference, f"chunk size {chunk_size}"
        after = counters()
        vector = after["sim.drain.vector_resolved"] - before["sim.drain.vector_resolved"]
        handled = (
            after["sim.drain.scalar_fallback"] - before["sim.drain.scalar_fallback"]
        )
        if ORGANIZATIONS[organization][1]:
            assert vector == len(stream) and handled == 0
        else:
            assert handled == len(stream) and vector == 0


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
        assert _deep_state(system) == reference, f"split at {offset}"


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", INCLUSION_GAP)
def test_long_walk_cases_reach_the_inclusion_gap(organization, level):
    """The uncapped tight cases really walk past their ways and self-evict."""
    reference = _make_system(organization, level)
    _run_reference(reference, _stream(organization))
    histogram = reference.directory_stats().attempt_histogram
    assert max(histogram) > 2  # both tables have two ways
    assert any("not tracked" in v for v in reference.check_inclusion())


@pytest.mark.parametrize("organization", ["cuckoo-tight", *INCLUSION_GAP])
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
        assert _deep_state(system) == _deep_state(reference), f"chunk size {chunk_size}"


@pytest.mark.parametrize("level", LEVELS, ids=["L1", "L2"])
@pytest.mark.parametrize("organization", ["cuckoo-tight", *INCLUSION_GAP])
def test_long_walks_match_under_both_walks(organization, level, monkeypatch):
    """The live walk (compiled where it builds) and the Python reference walk
    leave identical deep state, through the handlers and the drain."""
    stream = _stream(organization)
    states = []
    for walk in (cuckoo_hash._walk, cuckoo_hash._walk_python):
        monkeypatch.setattr(cuckoo_hash, "_walk", walk)
        reference = _make_system(organization, level)
        _run_reference(reference, stream)
        drained = _make_system(organization, level)
        _run_chunked(drained, stream, 512, check=False)
        states.append((_deep_state(reference), _deep_state(drained)))
    assert states[0] == states[1]
    assert states[0][0] == states[0][1]


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
    assert _deep_state(system) == _deep_state(reference)


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
    assert _deep_state(as_arrays) == _deep_state(as_lists)


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
    _run_reference(system, _stream(organization))
    before = _deep_state(system)
    violations = system.check_inclusion()
    if organization not in INCLUSION_GAP:
        assert violations == []
    assert _deep_state(system) == before


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


@pytest.mark.parametrize(
    "organization,exact", [("cuckoo", True), ("sparse", True), ("tagless", False)]
)
def test_check_inclusion_reports_stale_sharer_only_when_exact(organization, exact):
    system, block, first, _second = _shared_block_system(organization)
    system.tracked_caches[first].invalidate(block)  # the directory is not told
    violations = system.check_inclusion()
    if exact:
        assert len(violations) == 1 and "reported in caches" in violations[0]
    else:
        assert violations == []


@pytest.mark.parametrize(
    "organization", ["cuckoo", "stashed", "sparse", "in-cache", "skewed", "duplicate-tag"]
)
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
    _run_reference(system, stream)
    blocks = {system.block_address(address) for _core, address, _w, _i in stream}
    for slice_id, directory in enumerate(system.directories):
        tracked = directory.tracked_addresses()
        if tracked is None:
            # Only an inexact organization may keep the check from its entries.
            assert not directory.reports_exact_sharers
            continue
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
    _run_reference(system, _stream("cuckoo-tight-walk32"))
    assert system.check_inclusion() == []
