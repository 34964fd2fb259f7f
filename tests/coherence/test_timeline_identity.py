"""Timeline collection must be observation-only and path-independent.

Two invariants anchor the timeline design:

1. **On/off identity** — enabling ``timeline_interval`` may not change a
   single measured statistic: sampling reads non-mutating accessors at
   sub-slice boundaries only.
2. **Path identity** — running a stream of accesses (``run``, which cuts
   it into fixed-size chunks) and running the same stream cut at random
   chunk boundaries (``run_chunks``) must produce ``==``-equal timelines,
   byte-identical once persisted: samples are taken at boundaries where
   both have retired exactly the same accesses.

Both are exercised property-style over randomized access streams with
randomized chunk boundaries, including an under-provisioned configuration
that forces displacement chains and forced invalidations.
"""

import numpy as np
import pytest

from repro.coherence.simulator import TraceSimulator
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.directories.sparse import SparseDirectory
from repro.obs.timeline import save_timeline


def _config(cores=4):
    return SystemConfig(
        num_cores=cores,
        l1_config=CacheConfig(size_bytes=1024, associativity=2),
        l2_config=CacheConfig(size_bytes=8192, associativity=16),
        tracked_level=CacheLevel.L1,
        page_bytes=256,
    )


def _roomy_factory(num_caches, slice_id):
    return CuckooDirectory(num_caches=num_caches, num_sets=64, num_ways=4)


def _cramped_factory(num_caches, slice_id):
    # Deliberately under-provisioned: long displacement chains and forced
    # invalidations are routine, exercising every cumulative channel.
    return CuckooDirectory(num_caches=num_caches, num_sets=4, num_ways=2)


def _stream(seed, length, cores=4, blocks=120):
    rng = np.random.default_rng(seed)
    cores_arr = rng.integers(0, cores, size=length)
    addresses = rng.integers(0, blocks, size=length) * 64
    writes = rng.random(size=length) < 0.3
    instrs = np.zeros(length, dtype=bool)
    return cores_arr, addresses, writes, instrs


def _chunks(stream, seed):
    """The stream cut at random chunk boundaries (chunk production shape)."""
    rng = np.random.default_rng(seed + 1)
    cores, addresses, writes, instrs = stream
    position = 0
    out = []
    while position < len(cores):
        span = int(rng.integers(1, 97))
        stop = min(position + span, len(cores))
        out.append(
            (
                cores[position:stop],
                addresses[position:stop],
                writes[position:stop],
                instrs[position:stop],
            )
        )
        position = stop
    return out


def _sparse_factory(num_caches, slice_id):
    # A non-cuckoo organization: an LRU table in the drain.
    return SparseDirectory(num_caches=num_caches, num_sets=4, num_ways=2)


def _run(path, factory, stream, seed, timeline_interval, warmup=100,
         max_accesses=900):
    """Simulate ``stream`` as accesses (``"handlers"``: ``run``) or cut at
    random chunk boundaries (``"batch"``: ``run_chunks``)."""
    system = TiledCMP(_config(), factory)
    simulator = TraceSimulator(
        system,
        warmup_accesses=warmup,
        occupancy_sample_interval=150,
        timeline_interval=timeline_interval,
    )
    if path == "batch":
        return simulator.run_chunks(_chunks(stream, seed), max_accesses=max_accesses)
    cores, addresses, writes, instrs = stream
    accesses = (
        MemoryAccess(int(c), int(a), bool(w), bool(i))
        for c, a, w, i in zip(cores, addresses, writes, instrs)
    )
    return simulator.run(accesses, max_accesses=max_accesses)


def _stats_fingerprint(result):
    stats = result.directory_stats
    return (
        result.accesses,
        result.cache_hit_rate,
        result.average_occupancy,
        tuple(result.occupancy_samples),
        stats.insertions,
        stats.insertion_attempts,
        stats.forced_invalidations,
        tuple(sorted(stats.attempt_histogram.items())),
        result.traffic.total_messages,
        result.traffic.bytes_transferred,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "factory", [_roomy_factory, _cramped_factory, _sparse_factory],
    ids=["roomy", "forced-invalidations", "handler-loop"],
)
class TestPathIdentity:
    def test_handler_and_batch_timelines_are_equal(self, seed, factory):
        stream = _stream(seed, 1200)
        handlers = _run("handlers", factory, stream, seed, timeline_interval=100)
        batch = _run("batch", factory, stream, seed, timeline_interval=100)
        assert _stats_fingerprint(handlers) == _stats_fingerprint(batch)
        assert handlers.timeline == batch.timeline
        assert handlers.timeline.num_samples("occupancy_banks") > 0

    def test_persisted_timelines_are_byte_identical(self, seed, factory, tmp_path):
        stream = _stream(seed, 1200)
        handlers = _run("handlers", factory, stream, seed, timeline_interval=100)
        batch = _run("batch", factory, stream, seed, timeline_interval=100)
        save_timeline(tmp_path / "handlers.npz", handlers.timeline)
        save_timeline(tmp_path / "batch.npz", batch.timeline)
        assert (
            (tmp_path / "handlers.npz").read_bytes()
            == (tmp_path / "batch.npz").read_bytes()
        )


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("path", ["handlers", "batch"])
class TestObservationOnly:
    def test_timeline_on_off_identity(self, seed, path):
        stream = _stream(seed, 1200)
        off = _run(path, _cramped_factory, stream, seed, timeline_interval=None)
        on = _run(path, _cramped_factory, stream, seed, timeline_interval=75)
        assert _stats_fingerprint(off) == _stats_fingerprint(on)
        assert off.timeline is not None and not off.timeline.enabled
        assert on.timeline.enabled

    def test_interval_choice_does_not_change_results(self, seed, path):
        stream = _stream(seed, 1200)
        coarse = _run(path, _cramped_factory, stream, seed, timeline_interval=300)
        fine = _run(path, _cramped_factory, stream, seed, timeline_interval=50)
        assert _stats_fingerprint(coarse) == _stats_fingerprint(fine)
        assert fine.timeline.num_samples("insertions") > (
            coarse.timeline.num_samples("insertions")
        )


class TestPerAccessChunkAgreement:
    def test_run_and_run_chunks_produce_the_same_timeline(self):
        stream = _stream(7, 1000)
        chunked = _run("batch", _roomy_factory, stream, 7, timeline_interval=120,
                       warmup=50, max_accesses=800)
        per_access = _run("handlers", _roomy_factory, stream, 7,
                          timeline_interval=120, warmup=50, max_accesses=800)
        assert _stats_fingerprint(per_access) == _stats_fingerprint(chunked)
        assert per_access.timeline == chunked.timeline


class TestTimelineContents:
    def test_cumulative_channels_match_final_statistics(self):
        stream = _stream(11, 1200)
        result = _run("batch", _cramped_factory, stream, 11, timeline_interval=100,
                      max_accesses=800)
        timeline = result.timeline
        stats = result.directory_stats
        # 800 measured accesses at interval 100 -> the last sample lands on
        # the final access, so cumulative channels end at the run's totals.
        assert timeline.num_samples("insertions") == 8
        assert timeline.channel("insertions")[-1] == stats.insertions
        assert timeline.channel("insertion_attempts")[-1] == stats.insertion_attempts
        assert timeline.channel("forced_invalidations")[-1] == (
            stats.forced_invalidations
        )
        assert timeline.channel("total_messages")[-1] == (
            result.traffic.total_messages
        )
        chains = timeline.channel("attempt_chains")
        assert chains.sum() == stats.insertions
        assert (chains >= 0).all()

    def test_occupancy_channel_is_the_legacy_samples(self):
        stream = _stream(13, 1200)
        result = _run("batch", _roomy_factory, stream, 13, timeline_interval=200)
        assert result.timeline.occupancy_list() == result.occupancy_samples
        assert result.average_occupancy == (
            sum(result.occupancy_samples) / len(result.occupancy_samples)
        )
