"""Trace-driven simulation harness.

The paper's methodology (Section 5) warms the micro-architectural state
before measuring; :class:`TraceSimulator` mirrors that: a configurable
number of warm-up accesses are executed with statistics discarded, then a
measurement window is executed during which directory statistics,
occupancy samples, cache hit rates and traffic are collected.

One measurement loop, :meth:`TraceSimulator.run_chunks`, consumes *trace
chunks* — tuples of parallel ``(cores, addresses, is_writes,
is_instructions)`` sequences produced by :meth:`~repro.workloads.base.
Workload.trace_chunks` — and feeds whole sub-slices into :meth:`~repro.
coherence.system.TiledCMP.access_batch`.  Chunks are cut only where the
measurement semantics demand it (the warm-up boundary, occupancy-sample
points, the measurement end), so the per-access math runs vectorised and
no per-element Python conversion happens here.  :meth:`TraceSimulator.run`
takes a stream of :class:`~repro.coherence.system.MemoryAccess` objects
and runs it through the same loop, cut into chunks by
:func:`chunk_accesses`.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.coherence.messages import TrafficStats
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.directories.base import DirectoryStats
from repro.obs.metrics import counter as _obs_counter
from repro.obs.timeline import Timeline
from repro.obs.tracing import TRACER as _TRACER

__all__ = ["SimulationResult", "TraceSimulator", "TraceChunk", "chunk_accesses"]

# Phase spans are opened per chunk / per sample point — never per access
# (DESIGN.md "Observability").  ``trace_production`` times the workload
# generator (or replay mmap) producing the next chunk; ``translate`` and
# ``drain_vector`` (the compiled drain) are opened inside
# ``TiledCMP.access_batch``; ``occupancy_sampling`` times the directory
# occupancy probes.
_WARMUP_ACCESSES = _obs_counter(
    "sim.run.warmup_accesses", help="accesses executed during warm-up"
)
_MEASURED_ACCESSES = _obs_counter(
    "sim.run.measured_accesses", help="accesses executed while measuring"
)
_OCC_SAMPLES = _obs_counter(
    "sim.run.occupancy_samples", help="directory occupancy samples taken"
)
_TIMELINE_SAMPLES = _obs_counter(
    "sim.run.timeline_samples", help="full timeline channel samples taken"
)

#: Parallel per-access field sequences: (cores, addresses, writes, instrs).
TraceChunk = Tuple[Sequence[int], Sequence[int], Sequence[bool], Sequence[bool]]


def _chunk_arrays(cores, addresses, writes, instrs):
    """Chunk fields as numpy arrays, converted at most once per chunk.

    ``access_batch`` is called once per measurement sub-slice (sample
    points, warm-up boundary); converting list-backed chunks here keeps
    that conversion O(chunk) instead of O(chunk x sub-slices).  Array
    inputs (replays, vectorised generators) pass through untouched.
    """
    return (
        np.asarray(cores),
        np.asarray(addresses),
        np.asarray(writes),
        np.asarray(instrs),
    )


def chunk_accesses(
    accesses: Iterable[MemoryAccess], chunk_size: int = 4096
) -> Iterator[TraceChunk]:
    """Cut a stream of accesses into trace chunks of ``chunk_size`` (lists).

    The last chunk holds the tail of a finite stream.  Accesses are pulled
    one at a time, so the stream is consumed exactly as far as the chunks
    handed out.
    """
    cores: list = []
    addresses: list = []
    writes: list = []
    instrs: list = []
    for access in accesses:
        cores.append(access.core)
        addresses.append(access.address)
        writes.append(access.is_write)
        instrs.append(access.is_instruction)
        if len(cores) >= chunk_size:
            yield cores, addresses, writes, instrs
            cores, addresses, writes, instrs = [], [], [], []
    if cores:
        yield cores, addresses, writes, instrs


@dataclass
class SimulationResult:
    """Everything measured during the measurement window of one run."""

    accesses: int
    directory_stats: DirectoryStats
    per_slice_stats: List[DirectoryStats]
    traffic: TrafficStats
    cache_hit_rate: float
    average_occupancy: float
    #: The run's counter timeline.  Always carries the occupancy channel
    #: (the store of what used to be an ad-hoc ``List[float]``); the full
    #: channel set exists only when the simulator was built with a
    #: ``timeline_interval``.
    timeline: Optional[Timeline] = None

    @property
    def occupancy_samples(self) -> List[float]:
        """Occupancy samples as plain floats (the pre-timeline interface)."""
        if self.timeline is None:
            return []
        return self.timeline.occupancy_list()

    @property
    def average_insertion_attempts(self) -> float:
        return self.directory_stats.average_insertion_attempts

    @property
    def forced_invalidation_rate(self) -> float:
        return self.directory_stats.forced_invalidation_rate

    def attempt_distribution(self) -> Dict[int, float]:
        return self.directory_stats.attempt_distribution()


class TraceSimulator:
    """Runs a stream of memory accesses through a :class:`TiledCMP`."""

    def __init__(
        self,
        system: TiledCMP,
        warmup_accesses: int = 0,
        occupancy_sample_interval: int = 1000,
        timeline_interval: Optional[int] = None,
    ) -> None:
        if warmup_accesses < 0:
            raise ValueError("warmup_accesses must be non-negative")
        if occupancy_sample_interval <= 0:
            raise ValueError("occupancy_sample_interval must be positive")
        if timeline_interval is not None and timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive")
        self._system = system
        self._warmup = warmup_accesses
        self._sample_interval = occupancy_sample_interval
        self._timeline_interval = timeline_interval

    @property
    def system(self) -> TiledCMP:
        return self._system

    def _make_timeline(self) -> Timeline:
        return Timeline(
            occupancy_interval=self._sample_interval,
            interval=self._timeline_interval,
            banks=len(self._system.directories),
        )

    def run(
        self,
        trace: Iterable[MemoryAccess],
        max_accesses: Optional[int] = None,
    ) -> SimulationResult:
        """Execute a stream of accesses; returns measurement-window statistics.

        :meth:`run_chunks` over the stream cut into chunks
        (:func:`chunk_accesses`).  ``max_accesses`` bounds the *measured*
        accesses (the warm-up is on top of it), so an unbounded generator
        trace still terminates, and the stream is consumed exactly up to
        the last executed access, so callers may keep using its tail.
        """
        if max_accesses is not None:
            trace = itertools.islice(trace, self._warmup + max(1, max_accesses))
        return self.run_chunks(chunk_accesses(trace), max_accesses)

    def run_chunks(
        self,
        chunks: Iterable[TraceChunk],
        max_accesses: Optional[int] = None,
    ) -> SimulationResult:
        """Execute a chunked trace and return measurement-window statistics.

        Each chunk is executed through the system's batched front-end in
        sub-slices that end exactly at the warm-up boundary, at every
        occupancy-sample point, at every timeline-sample point and at the
        measurement end, so warm-up and sampling behave per-access even
        though execution is batched.  The timeline only ever observes the
        system at these sub-slice boundaries, and ``access_batch`` gives the
        same state at any chunk boundary, so enabling it cannot change any
        measured statistic and the timeline equals the per-access one.
        """
        system = self._system
        access_batch = system.access_batch
        warmup = self._warmup
        interval = self._sample_interval
        tl_interval = self._timeline_interval
        timeline = self._make_timeline()
        position = 0
        measured = 0
        until_sample = interval
        until_timeline = tl_interval
        # A non-positive bound behaves like the original ``measured >= max``
        # check: the first measured access trips it.
        remaining = max(1, max_accesses) if max_accesses is not None else None

        # Chunk production is pulled manually (instead of a ``for`` over
        # ``chunks``) so the generator's own cost lands in its span.
        iterator = iter(chunks)
        # The chunk kernels churn through short-lived, acyclic objects
        # (zip rows, candidate index tuples, pooled sharer sets), so
        # generational collection passes can never free anything here --
        # they only show up as pauses in the middle of the measured
        # region.  Collection is paused for the loop and restored after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                with _TRACER.span("trace_production"):
                    chunk = next(iterator, None)
                if chunk is None:
                    break
                cores, addresses, writes, instrs = _chunk_arrays(*chunk)
                length = len(cores)
                offset = 0
                while offset < length:
                    if position < warmup:
                        span = min(length - offset, warmup - position)
                        access_batch(cores, addresses, writes, instrs, offset, offset + span)
                        position += span
                        offset += span
                        _WARMUP_ACCESSES.add(span)
                        continue
                    if position == warmup:
                        system.reset_stats()
                    span = length - offset
                    if span > until_sample:
                        span = until_sample
                    if until_timeline is not None and span > until_timeline:
                        span = until_timeline
                    if remaining is not None and span > remaining:
                        span = remaining
                    access_batch(cores, addresses, writes, instrs, offset, offset + span)
                    position += span
                    offset += span
                    measured += span
                    until_sample -= span
                    _MEASURED_ACCESSES.add(span)
                    if until_sample == 0:
                        with _TRACER.span("occupancy_sampling"):
                            timeline.record_occupancy(system.sample_occupancy())
                        _OCC_SAMPLES.inc()
                        until_sample = interval
                    if until_timeline is not None:
                        until_timeline -= span
                        if until_timeline == 0:
                            with _TRACER.span("timeline_sampling"):
                                timeline.sample(system)
                            _TIMELINE_SAMPLES.inc()
                            until_timeline = tl_interval
                    if remaining is not None:
                        remaining -= span
                        if remaining == 0:
                            return self._build_result(measured, timeline)
        finally:
            if gc_was_enabled:
                gc.enable()

        return self._build_result(measured, timeline)

    def _build_result(self, measured: int, timeline: Timeline) -> SimulationResult:
        """Assemble the measurement-window statistics."""
        system = self._system
        # Always take at least one occupancy sample so short runs report a
        # meaningful average instead of zero; same guarantee for the full
        # channel set so an enabled timeline is never empty.
        if measured > 0 and not timeline.num_samples("occupancy"):
            timeline.record_occupancy(system.sample_occupancy())
        if timeline.enabled and measured > 0 and not timeline.num_samples("occupancy_banks"):
            timeline.sample(system)
            _TIMELINE_SAMPLES.inc()
        occupancy_samples = timeline.occupancy_list()

        per_slice = [directory.stats for directory in system.directories]
        merged = system.directory_stats()
        hits = sum(cache.stats.hits for cache in system.tracked_caches)
        accesses = sum(cache.stats.accesses for cache in system.tracked_caches)
        hit_rate = hits / accesses if accesses else 0.0
        average_occupancy = (
            sum(occupancy_samples) / len(occupancy_samples)
            if occupancy_samples
            else 0.0
        )
        timeline.publish_gauges()
        return SimulationResult(
            accesses=measured,
            directory_stats=merged,
            per_slice_stats=list(per_slice),
            traffic=system.traffic,
            cache_hit_rate=hit_rate,
            average_occupancy=average_occupancy,
            timeline=timeline,
        )
