"""Replaying recorded traces as first-class workloads.

:class:`TraceReplayWorkload` adapts a :class:`~repro.traces.format.TraceFile`
to the :class:`~repro.workloads.base.Workload` interface, so everything
that consumes workloads — :func:`repro.experiments.common.run_workload`,
the engine's :func:`~repro.engine.execute.execute_spec`, mixes —
replays recordings through the exact same machinery that drives live
generation.  Replay streams memory-mapped array slices straight into
:meth:`~repro.coherence.simulator.TraceSimulator.run_chunks`; for the same
``(system, seed)`` the flattened stream is byte-for-byte the recorded one,
so the resulting :class:`~repro.coherence.simulator.SimulationResult` is
bit-identical to live generation at a fraction of the generation cost.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from repro.coherence.system import MemoryAccess
from repro.config import SystemConfig
from repro.traces.format import TraceFile, TraceHeader
from repro.workloads.base import Workload, WorkloadCategory

__all__ = ["TraceReplayWorkload"]

#: Replay chunk granularity.  Chunk boundaries carry no semantics (warm-up
#: and sampling are per-access), so replay is free to use larger chunks
#: than the generators' draw-order-pinned 4096.
REPLAY_CHUNK_SIZE = 16384


class TraceReplayWorkload(Workload):
    """A workload whose accesses come from a recorded trace file.

    The replayed stream is frozen data: the ``seed`` argument of
    :meth:`trace_chunks` is accepted for interface compatibility but must
    match the seed the trace was recorded with — replaying recording A
    under seed B would silently mislabel the simulation point.
    """

    def __init__(self, path: Union[str, Path, TraceFile]) -> None:
        trace = path if isinstance(path, TraceFile) else TraceFile(path)
        self._trace = trace
        header = trace.header
        super().__init__(header.workload, WorkloadCategory(header.category))

    @property
    def trace_file(self) -> TraceFile:
        return self._trace

    @property
    def header(self) -> TraceHeader:
        return self._trace.header

    @property
    def path(self) -> Path:
        return self._trace.path

    @property
    def num_accesses(self) -> int:
        return self._trace.header.num_accesses

    def _validate_system(self, system: SystemConfig, seed: int) -> None:
        header = self._trace.header
        problems = []
        if system.num_cores != header.num_cores:
            problems.append(
                f"system has {system.num_cores} cores, trace was recorded on "
                f"{header.num_cores}"
            )
        if system.block_bytes != header.block_bytes:
            problems.append(
                f"system block size is {system.block_bytes} B, trace was recorded "
                f"with {header.block_bytes} B blocks"
            )
        if seed != header.seed:
            problems.append(
                f"requested seed {seed}, trace was recorded with seed {header.seed}"
            )
        if problems:
            raise ValueError(
                f"trace {self._trace.path} cannot replay on this system: "
                + "; ".join(problems)
            )

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = REPLAY_CHUNK_SIZE
    ) -> Iterator[tuple]:
        """Stream the recorded accesses in chunks (finite, then exhausted)."""
        self._validate_system(system, seed)
        return self._trace.iter_chunks(chunk_size=chunk_size)

    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        return self._trace_via_chunks(system, seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceReplayWorkload({str(self._trace.path)!r}, "
            f"{self.name!r}, accesses={self.num_accesses})"
        )
