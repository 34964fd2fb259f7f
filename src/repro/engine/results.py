"""Serializable results of engine-executed simulation points.

:class:`RunResult` captures the measurement-window statistics the
experiment drivers actually consume — occupancy, insertion attempts,
forced invalidations, the attempt histogram — in plain JSON-serializable
form, so results can cross process boundaries and live in the on-disk
:class:`~repro.engine.store.ResultStore`.  ``elapsed_seconds`` is recorded
for reporting but excluded from equality so a cached result compares equal
to a freshly simulated one.

Results are stored as the JSON object :meth:`RunResult.to_dict` returns,
one line per record in the store's write-ahead logs; there is no other
on-disk encoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.engine.spec import RunSpec

__all__ = ["RunResult", "RunFailure"]


@dataclass(frozen=True)
class RunResult:
    """Everything the experiments read from one simulated point."""

    spec: RunSpec
    accesses: int
    cache_hit_rate: float
    average_occupancy: float
    occupancy_vs_worst_case: float
    average_insertion_attempts: float
    forced_invalidation_rate: float
    insertions: int
    insertion_attempts: int
    forced_invalidations: int
    tracked_frames_total: int
    directory_capacity_total: int
    total_messages: int
    attempt_histogram: Tuple[Tuple[int, int], ...] = ()
    elapsed_seconds: float = field(default=0.0, compare=False)
    #: Pid of the process that simulated this point ("" for cached/legacy
    #: records); lets ``repro-run report`` aggregate cost per worker.
    worker: str = field(default="", compare=False)
    #: The run's counter :class:`~repro.obs.timeline.Timeline`, attached
    #: only when the spec requested one.  Excluded from equality and from
    #: :meth:`to_dict` — timelines are columnar payloads, persisted as a
    #: compact ``.npz`` sidecar by the result store, never as JSONL floats.
    timeline: Optional[object] = field(default=None, compare=False)

    def attempt_distribution(self) -> Dict[int, float]:
        """Normalised insertion-attempt histogram (Figure 11)."""
        total = sum(count for _, count in self.attempt_histogram)
        if total == 0:
            return {}
        return {attempts: count / total for attempts, count in self.attempt_histogram}

    def with_timeline(self, timeline: Optional[object]) -> "RunResult":
        """This result with ``timeline`` attached (results are frozen)."""
        return replace(self, timeline=timeline)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "accesses": self.accesses,
            "cache_hit_rate": self.cache_hit_rate,
            "average_occupancy": self.average_occupancy,
            "occupancy_vs_worst_case": self.occupancy_vs_worst_case,
            "average_insertion_attempts": self.average_insertion_attempts,
            "forced_invalidation_rate": self.forced_invalidation_rate,
            "insertions": self.insertions,
            "insertion_attempts": self.insertion_attempts,
            "forced_invalidations": self.forced_invalidations,
            "tracked_frames_total": self.tracked_frames_total,
            "directory_capacity_total": self.directory_capacity_total,
            "total_messages": self.total_messages,
            "attempt_histogram": [list(pair) for pair in self.attempt_histogram],
            "elapsed_seconds": self.elapsed_seconds,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        payload = dict(data)
        spec = RunSpec.from_dict(payload.pop("spec"))
        histogram = tuple(
            (int(attempts), int(count))
            for attempts, count in payload.pop("attempt_histogram", [])
        )
        return cls(spec=spec, attempt_histogram=histogram, **payload)

    @classmethod
    def from_workload_run(
        cls,
        spec: RunSpec,
        run: "object",
        elapsed_seconds: float = 0.0,
        worker: str = "",
    ) -> "RunResult":
        """Condense a :class:`~repro.experiments.common.WorkloadRun`."""
        sim = run.result
        stats = sim.directory_stats
        histogram = tuple(sorted((int(k), int(v)) for k, v in stats.attempt_histogram.items()))
        # Only a *requested* timeline rides along: every simulation collects
        # the always-on occupancy channel, but storing a sidecar per point
        # for it would bloat every sweep for data already condensed into
        # average_occupancy.
        timeline = sim.timeline if spec.timeline_interval is not None else None
        if timeline is not None and not timeline.enabled:
            timeline = None
        return cls(
            spec=spec,
            accesses=sim.accesses,
            cache_hit_rate=sim.cache_hit_rate,
            average_occupancy=sim.average_occupancy,
            occupancy_vs_worst_case=run.occupancy_vs_worst_case,
            average_insertion_attempts=stats.average_insertion_attempts,
            forced_invalidation_rate=stats.forced_invalidation_rate,
            insertions=stats.insertions,
            insertion_attempts=stats.insertion_attempts,
            forced_invalidations=stats.forced_invalidations,
            tracked_frames_total=run.tracked_frames_total,
            directory_capacity_total=run.directory_capacity_total,
            total_messages=sim.traffic.total_messages,
            attempt_histogram=histogram,
            elapsed_seconds=elapsed_seconds,
            worker=worker,
            timeline=timeline,
        )


@dataclass(frozen=True)
class RunFailure:
    """An isolated simulation-point failure (the rest of the grid proceeds)."""

    spec: RunSpec
    error: str
    traceback: str = ""
    timestamp: float = field(default_factory=time.time, compare=False)

    def __str__(self) -> str:
        return f"{self.spec.label()}: {self.error}"
