"""The compiled drain against the reference protocol.

``TiledCMP.access_batch`` runs every chunk through ``drain`` in
``repro/core/_kernels.c``, the simulator's one definition of the protocol.
These tests hold it to the handler loop of ``tests/coherence/
reference_protocol.py`` on random geometries, the stashed cuckoo included,
and tracked caches and shared-L2 banks whose set counts are powers of two
(a masked set index) or not (a division), comparing canonical state
(``reference_protocol.canonical_state``), and check the typed-state checks
of the machine and the drain and the frame a fill takes.
"""

import importlib.util
from array import array
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


def _system(
    organization, ways, sets, max_attempts=32, level=CacheLevel.L1, stash=0,
    l1_sets=4, l2_sets=8,
):
    config = SystemConfig(
        num_cores=4,
        l1_config=CacheConfig(size_bytes=64 * 2 * l1_sets, associativity=2),
        l2_config=CacheConfig(size_bytes=64 * 4 * l2_sets, associativity=4),
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
    l1_sets=st.sampled_from([1, 3, 4, 6, 8]),
    l2_sets=st.sampled_from([2, 5, 8, 12]),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(1, 239), max_size=6),
)
def test_compiled_drain_matches_handlers(
    organization, ways, sets, max_attempts, stash, level, l1_sets, l2_sets, seed, cuts
):
    if organization in ("cuckoo", "cuckoo-strong", "stashed"):
        # 16-way tables are LRU ones (sparse, skewed) only.
        ways = min(max(ways, 2), 8)
    stream = _stream(seed, 240, blocks=6 * ways * sets + 8)
    geometry = (organization, ways, sets, max_attempts, level, stash, l1_sets, l2_sets)
    drained = _system(*geometry)
    reference = _system(*geometry)
    position = 0
    for stop in sorted(set(cuts)) + [240]:
        drained.access_batch(*stream, position, stop)
        _run_reference(reference, stream, position, stop)
        position = stop
        assert canonical_state(drained) == canonical_state(reference), f"chunk ending {stop}"


@pytest.mark.parametrize("l2_sets", [8, 6], ids=["masked-index", "divided-index"])
@pytest.mark.parametrize(
    "tags,stamps,way",
    [
        ((0, -1, 1, -1), (5, 0, 3, 0), 1),  # the first vacant frame ...
        ((-1, 0, 1, 2), (0, 1, 2, 3), 0),
        ((0, 1, 2, -1), (1, 2, 3, 0), 3),  # ... even past a lower stamp
        ((0, 1, 2, 3), (5, 2, 2, 7), 1),  # else the lowest stamp, ties to the lowest way
        ((0, 1, 2, 3), (4, 4, 4, 4), 0),
        ((0, 1, 2, 3), (9, 8, 7, 3), 3),
    ],
)
def test_a_fill_takes_the_first_vacant_frame_else_the_least_recently_used(
    tags, stamps, way, l2_sets
):
    """pick_frame's one scan: a miss fills its set's first vacant frame, and
    only a full set evicts, taking the frame with the lowest stamp and, among
    equal stamps, the lowest way."""
    system = _system("sparse", 4, 4, level=CacheLevel.L2, l2_sets=l2_sets)
    cache = system.tracked_caches[1]
    frame_tags, frame_stamps, states, _, counts, ways = cache.drain_state()
    index = 3
    base = index * ways
    blocks = [index + l2_sets * (k + 1) for k in range(4)]  # four blocks of set 3
    for offset, (tag, stamp) in enumerate(zip(tags, stamps)):
        frame_tags[base + offset] = -1 if tag < 0 else blocks[tag]
        frame_stamps[base + offset] = stamp
        states[base + offset] = 0 if tag < 0 else 1
    block = index + l2_sets * 9
    evictions = counts[2]
    native.KERNELS.drain(system._machine, np.array([[block], [block // 4], [block % 4], [1], [0]]))
    assert frame_tags[base + way] == block
    assert counts[2] - evictions == (-1 not in tags)


def test_machine_refuses_a_slice_count_that_is_not_a_power_of_two():
    """The drain splits a block's home from its slice-local address by shift
    and mask, so machine() takes only a power-of-two slice count."""
    caches, banks, slices, *rest = _machine_args(_system("cuckoo", 2, 4))
    native.KERNELS.machine(caches, banks[:2], slices[:2], *rest)
    with pytest.raises(ValueError, match="geometry"):
        native.KERNELS.machine(caches, banks[:3], slices[:3], *rest)


def _machine_args(system):
    """The arguments ``TiledCMP._prepare_drain`` gives ``machine()``."""
    return [
        tuple(cache.drain_state() for cache in system.tracked_caches),
        tuple(bank.drain_state() for bank in system.l2_banks),
        tuple(directory.drain_state() for directory in system.directories),
        system._hops, system.traffic._row, 1,
    ]


@pytest.mark.parametrize(
    "part,position,buffer,error",
    [
        ("caches", 0, array("i", [-1] * 32), TypeError),  # int32 tags
        ("caches", 2, array("b", [0] * 32), TypeError),  # int8 states
        ("caches", 1, array("q", [0] * 31), ValueError),  # short stamps
        ("caches", 4, array("q", [0] * 7), ValueError),  # long counts
        ("slices", 1, array("q", [0] * 12), ValueError),  # short stats row
        ("slices", 3, array("q", [0] * 2), TypeError),  # signed stash masks
        ("table", 1, np.zeros(8, dtype=np.int64), TypeError),  # signed masks
        ("table", 0, np.full(7, -1, dtype=np.int64), ValueError),  # short keys
        ("table", 4, array("Q", [1, 2, 4, 0, 0]), ValueError),  # not a descriptor
    ],
)
def test_machine_refuses_a_buffer_of_the_wrong_type_or_length(part, position, buffer, error):
    """Every buffer is checked when the machine takes it: a wrong item type
    raises TypeError, a wrong length ValueError."""
    system = _system("stashed", 2, 4, stash=2)
    args = _machine_args(system)
    index = {"caches": 0, "slices": 2, "table": 2}[part]
    states = list(args[index])
    if part == "table":
        table = list(states[0][0])
        table[position] = buffer
        states[0] = (tuple(table), *states[0][1:])
    else:
        states[0] = list(states[0])
        states[0][position] = buffer
        states[0] = tuple(states[0])
    args[index] = tuple(states)
    native.KERNELS.machine(*_machine_args(system))  # the system's own are fine
    with pytest.raises(error):
        native.KERNELS.machine(*args)


@pytest.mark.parametrize(
    "row,value",
    [(0, -1), (1, -2), (2, 4), (2, -1), (3, 64), (3, -1)],
    ids=["negative-block", "negative-key", "home-past-slices", "negative-home",
         "cache-past-caches", "negative-cache"],
)
def test_out_of_range_trace_values_raise_with_nothing_written(row, value):
    """The whole trace is checked before its first access runs: one value
    out of range raises IndexError and leaves every buffer as it was."""
    system = _system("stashed", 2, 4, stash=2)
    stream = _stream(3, 200, blocks=20)
    system.access_batch(*stream, 0, 100)
    before = canonical_state(system)
    blocks = np.arange(10, dtype=np.int64) * 4
    trace = np.stack([blocks, blocks // 4, blocks % 4, blocks % 8, blocks % 2])
    trace[row, 7] = value
    with pytest.raises(IndexError, match="access 7"):
        native.KERNELS.drain(system._machine, trace)
    assert canonical_state(system) == before


def test_out_of_range_table_state_raises_with_nothing_written():
    """A start way past the table's ways, or a sharer mask naming a cache the
    system does not have, raises IndexError instead of indexing past a
    buffer: the start way before any access runs."""
    system = _system("cuckoo", 2, 4)
    stream = _stream(3, 400, blocks=20)
    system.access_batch(*stream, 0, 100)
    home = system.directories[0].table
    home._meta[1] = 2
    before = canonical_state(system)
    with pytest.raises(IndexError, match="start way"):
        system.access_batch(*stream, 100, 400)
    assert canonical_state(system) == before
    home._meta[1] = 0
    keys = list(home._keys)
    home._masks[next(s for s, key in enumerate(keys) if key >= 0)] = 1 << 40
    with pytest.raises(IndexError, match="sharer out of range"):
        system.access_batch(*stream, 100, 400)


def test_freed_stash_entries_leave_the_stash_in_age_order():
    """A stash entry whose last sharer leaves is freed, the younger entries
    moving up, as the directory API frees it: after every access the stash
    holds the oracle's entries in the oracle's order."""
    stream = _stream(5, 1500, blocks=400)
    drained = _system("stashed", 2, 4, max_attempts=5, stash=2)
    reference = _system("stashed", 2, 4, max_attempts=5, stash=2)
    handlers = reference_protocol.Handlers(reference)
    freed = 0
    for position, access in enumerate(zip(*stream)):
        parked = [set(d.stash_items()) for d in drained.directories]
        drained.access_batch(*stream, position, position + 1)
        handlers.access(*access)
        assert [d.stash_items() for d in drained.directories] == [
            d.stash_items() for d in reference.directories
        ], f"access {position}"
        freed += sum(
            len(before - set(d.stash_items()))
            for d, before in zip(drained.directories, parked)
        )
    assert freed > 0
    assert canonical_state(drained) == canonical_state(reference)


def test_drain_rejects_bad_arguments():
    system = _system("cuckoo", 2, 4)
    trace = np.zeros((5, 3), dtype=np.int64)
    with pytest.raises(TypeError):
        native.KERNELS.drain(None, trace)
    with pytest.raises(ValueError):
        native.KERNELS.drain(system._machine, np.zeros((4, 3), dtype=np.int64))
    with pytest.raises(TypeError):
        native.KERNELS.drain(system._machine, trace.astype(np.int32))
    with pytest.raises(TypeError):
        native.KERNELS.machine((), None, (), None, None, 0)
    with pytest.raises(ValueError):
        native.KERNELS.machine(*(_machine_args(system)[:3]), np.zeros((4, 3), np.int64),
                               None, 1)
    assert system.accesses_processed == 0


@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2], ids=["L1", "L2"])
def test_flushed_cache_drains_on(level):
    """The drain holds each cache's buffers from construction on, so a flush
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
