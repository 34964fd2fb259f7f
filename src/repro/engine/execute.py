"""Execution of a single :class:`~repro.engine.spec.RunSpec`.

:func:`execute_spec` is the one place that turns a declarative spec back
into a live :class:`~repro.coherence.system.TiledCMP` simulation.  Both the
serial path and the :mod:`multiprocessing` workers of
:class:`~repro.engine.runner.ParallelRunner` go through it, so a point's
result is identical no matter where it ran: the worker rebuilds the whole
system from the spec and replays the same seeded trace.

The imports of :mod:`repro.experiments.common` are deferred to call time:
the experiments package imports the engine (drivers declare their grids
through it), so importing it back at module level would be circular.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Callable, Dict

from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.obs.logging import get_logger, set_context

_LOG = get_logger("repro.engine.execute")

__all__ = [
    "execute_spec",
    "execute_payload",
    "directory_factory_for_spec",
    "resolve_workload",
]


def directory_factory_for_spec(spec: RunSpec, system: "object") -> Callable:
    """Build the per-slice directory factory a spec describes."""
    from repro.experiments import common

    if spec.organization == "sparse":
        return common.sparse_factory(system, ways=spec.ways, provisioning=spec.provisioning)
    if spec.organization == "skewed":
        return common.skewed_factory(system, ways=spec.ways, provisioning=spec.provisioning)
    if spec.organization != "cuckoo":  # defensive; RunSpec already validates
        raise ValueError(f"unknown organization {spec.organization!r}")
    if spec.hash_family is None:
        return common.cuckoo_factory(system, ways=spec.ways, provisioning=spec.provisioning)

    # Hash-family override (Section 5.5 ablation): same geometry resolution
    # as cuckoo_factory.  The skewing family is shared by every slice; the
    # strong family is seeded per slice.
    from repro.config import DirectoryConfig
    from repro.core.cuckoo_directory import CuckooDirectory
    from repro.hashing.skewing import SkewingHashFamily
    from repro.hashing.strong import StrongHashFamily

    sets = DirectoryConfig.for_provisioning(
        system, ways=spec.ways, provisioning=spec.provisioning
    ).sets

    shared = SkewingHashFamily(spec.ways, sets) if spec.hash_family == "skewing" else None

    def factory(num_caches: int, slice_id: int):
        hashes = shared or StrongHashFamily(spec.ways, sets, seed=slice_id + 1)
        return CuckooDirectory(
            num_caches=num_caches, num_sets=sets, num_ways=spec.ways, hash_family=hashes
        )

    return factory


def resolve_workload(spec: RunSpec, system: "object") -> "object":
    """The workload a spec points at: suite generator, trace replay, or mix.

    Trace replays are validated against the spec before simulation — a
    header whose workload name, seed or core count disagrees with the spec
    would silently cache the result under the wrong key, so it is an error;
    so is a recording too short to cover the spec's warm-up + measurement
    window (the chunked loop would otherwise just run out of accesses and
    mislabel a truncated run as the full point).
    """
    from repro.workloads.suite import get_workload

    if spec.mix is not None:
        from repro.traces.mix import parse_mix

        mix = parse_mix(spec.mix)
        if mix.total_cores != spec.num_cores:
            raise ValueError(
                f"mix {spec.mix!r} spans {mix.total_cores} cores but the spec "
                f"says num_cores={spec.num_cores}"
            )
        if spec.trace_fingerprint is not None:
            actual = mix.trace_fingerprint()
            if actual != spec.trace_fingerprint:
                raise ValueError(
                    f"mix {spec.mix!r} trace components no longer match the spec's "
                    f"content fingerprint (a referenced trace file was re-recorded); "
                    f"rebuild the spec from the current recordings"
                )
        _validate_mix_components(spec, mix, system)
        return mix
    if spec.trace is not None:
        from repro.traces.replay import TraceReplayWorkload

        replay = TraceReplayWorkload(spec.trace)
        header = replay.header
        problems = []
        if header.workload != spec.workload:
            problems.append(
                f"trace records {header.workload!r}, spec says {spec.workload!r}"
            )
        if header.seed != spec.seed:
            problems.append(f"trace seed {header.seed}, spec seed {spec.seed}")
        if header.num_cores != spec.num_cores:
            problems.append(
                f"trace has {header.num_cores} cores, spec says {spec.num_cores}"
            )
        # The generated stream is scale-specific (footprints are sized from
        # the scaled cache capacities), so a scale-mismatched replay would
        # simulate a mislabelled point.
        if header.scale is not None and header.scale != spec.scale:
            problems.append(
                f"trace was recorded at scale {header.scale}, spec says {spec.scale}"
            )
        if (
            spec.trace_fingerprint is not None
            and header.fingerprint != spec.trace_fingerprint
        ):
            problems.append(
                f"trace contents changed since the spec was built "
                f"(fingerprint {header.fingerprint[:12]}… != spec's "
                f"{spec.trace_fingerprint[:12]}…)"
            )
        if problems:
            raise ValueError(
                f"trace {spec.trace} does not match the spec: " + "; ".join(problems)
            )
        warmup = spec.warmup_accesses
        if warmup is None:
            warmup = replay.recommended_warmup(system)
        needed = warmup + spec.measure_accesses
        if header.num_accesses < needed:
            raise ValueError(
                f"trace {spec.trace} holds {header.num_accesses} accesses but the "
                f"spec needs {needed} (warmup {warmup} + measure {spec.measure_accesses})"
            )
        return replay
    return get_workload(spec.workload)


def _validate_mix_components(spec: RunSpec, mix: "object", system: "object") -> None:
    """Trace-backed mix components get the same scrutiny as ``spec.trace``.

    A component recorded at a different scale would simulate a mislabelled
    point, and a component shorter than its share of the run would make the
    mix stream run dry and silently truncate the measurement window — the
    exact hazards the plain-trace branch rejects.
    """
    import math

    from repro.traces.replay import TraceReplayWorkload

    warmup = spec.warmup_accesses
    if warmup is None:
        warmup = mix.recommended_warmup(system)
    # The stride schedule draws exactly `cores` accesses per component per
    # round of `total_cores`, so a run of N accesses consumes
    # ceil(N / total) * cores from each component.
    rounds_needed = math.ceil((warmup + spec.measure_accesses) / mix.total_cores)
    for workload, cores in mix.components:
        if not isinstance(workload, TraceReplayWorkload):
            continue
        header = workload.header
        if header.scale is not None and header.scale != spec.scale:
            raise ValueError(
                f"mix component {workload.path} was recorded at scale "
                f"{header.scale}, spec says {spec.scale}"
            )
        required = rounds_needed * cores
        if header.num_accesses < required:
            raise ValueError(
                f"mix component {workload.path} holds {header.num_accesses} "
                f"accesses but its {cores}-core share of the run needs "
                f"{required} (warmup {warmup} + measure {spec.measure_accesses})"
            )


def execute_spec(spec: RunSpec) -> RunResult:
    """Simulate one point from scratch and return its condensed result.

    The result records the simulate wall time and the executing pid so
    downstream reporting can aggregate cost per point and per worker; log
    lines emitted while the point runs carry its spec hash as context.
    """
    from repro.config import CacheLevel
    from repro.experiments import common

    set_context(spec=spec.key()[:12], workload=spec.workload)
    started = time.perf_counter()
    try:
        system = common.scaled_system(
            CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
        )
        workload = resolve_workload(spec, system)
        factory = directory_factory_for_spec(spec, system)
        _LOG.debug("simulating %s", spec.label())
        run = common.run_workload(
            workload,
            system,
            factory,
            measure_accesses=spec.measure_accesses,
            warmup_accesses=spec.warmup_accesses,
            seed=spec.seed,
            occupancy_sample_interval=spec.occupancy_sample_interval,
            timeline_interval=spec.timeline_interval,
        )
        elapsed = time.perf_counter() - started
        _LOG.info("simulated %s in %.3fs", spec.label(), elapsed)
    finally:
        set_context(spec=None, workload=None)
    return RunResult.from_workload_run(
        spec, run, elapsed_seconds=elapsed, worker=str(os.getpid())
    )


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: spec dict in, outcome dict out.

    Exceptions never escape — a failing point is reported as a ``"failed"``
    outcome so one bad spec cannot take down the pool or the rest of the
    grid (failure isolation).
    """
    try:
        spec = RunSpec.from_dict(payload)
    except Exception as exc:  # pragma: no cover - malformed payloads
        return {
            "status": "failed",
            "spec": dict(payload),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    try:
        result = execute_spec(spec)
        outcome = {"status": "ok", "result": result.to_dict()}
        if result.timeline is not None:
            # Columnar numpy payload; pickles across the pool boundary and
            # is reattached by ParallelRunner._record_outcome.
            outcome["timeline"] = result.timeline.to_payload()
        return outcome
    except Exception as exc:
        return {
            "status": "failed",
            "spec": spec.to_dict(),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
