#!/usr/bin/env python
"""Telemetry overhead benchmark: enabled vs disabled on the fig10 point.

The observability subsystem (:mod:`repro.obs`) promises that enabling
metrics + phase tracing costs at most 2% of end-to-end simulation time,
because every instrument sits at chunk/phase granularity — never inside
the per-access loop.  This benchmark holds that promise to the fire.

It times the Figure 10 reference point (Oracle, Shared-L2 chosen design,
scale 16, 40 000 measured accesses) through :func:`execute_spec` three
ways per repeat — telemetry disabled, telemetry enabled, and counter
timelines enabled — *interleaved* so machine-load drift cancels out of
the ratios, and takes the best of N for each side.  One point takes a few
hundredths of a second, far below the host's scheduling noise, so each
sample is a fixed number of back-to-back runs of the point, chosen at
warm-up so that a sample spans at least ``SAMPLE_SECONDS``, and reports
their mean.  The gated claim is the telemetry ratio on the timeline-off
path (the default), not the absolute seconds:

    overhead_ratio = enabled_seconds / disabled_seconds <= 1.02

Counter-timeline collection (``--timeline-interval``, PR 8) is opt-in
and *allowed* to cost more — its ratio is recorded informationally so
sampling-cost regressions are still visible in the committed record.

The record also keeps the enabled run's per-phase self-time totals so a
future regression can be localised (did translate grow? store I/O?).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py              # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick      # CI
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --fail-above 1.02

Like bench_hot_path.py this bypasses the engine result store on purpose:
a cached lookup would measure the store, not the instrumented simulator.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.engine.execute import execute_spec  # noqa: E402
from repro.engine.spec import RunSpec  # noqa: E402

#: The Figure 10 reference point: Oracle on the Shared-L2 chosen design.
FIG10_REFERENCE = RunSpec(
    workload="Oracle",
    tracked_level="L1",
    organization="cuckoo",
    ways=4,
    provisioning=1.0,
    scale=16,
    measure_accesses=40_000,
    seed=0,
)


#: The same point with counter-timeline sampling on (informational leg).
FIG10_TIMELINE = replace(FIG10_REFERENCE, timeline_interval=1_000)

#: The shortest a sample may span: it runs the point back to back this long.
SAMPLE_SECONDS = 1.0


def _time_point(spec: RunSpec = FIG10_REFERENCE, runs: int = 1) -> float:
    """Mean seconds of ``runs`` back-to-back runs of ``spec``."""
    start = time.perf_counter()
    for _ in range(runs):
        execute_spec(spec)
    return (time.perf_counter() - start) / runs


def run_benchmark(repeats: int) -> Dict[str, object]:
    """Interleaved best-of-``repeats`` timing of disabled vs enabled."""
    obs.disable()
    obs.reset()
    _time_point()  # warm up: imports, hash descriptors, allocator
    runs = max(1, math.ceil(SAMPLE_SECONDS / _time_point()))

    disabled: List[float] = []
    enabled: List[float] = []
    timeline: List[float] = []
    for _ in range(repeats):
        obs.disable()
        disabled.append(_time_point(runs=runs))
        timeline.append(_time_point(FIG10_TIMELINE, runs))
        obs.enable()
        enabled.append(_time_point(runs=runs))

    phase_self_seconds = {
        name: stats["self_seconds"] for name, stats in obs.TRACER.totals().items()
    }
    obs.disable()
    obs.reset()

    best_disabled = min(disabled)
    best_enabled = min(enabled)
    best_timeline = min(timeline)
    return {
        "runs_per_sample": runs,
        "disabled_seconds": best_disabled,
        "enabled_seconds": best_enabled,
        "overhead_ratio": best_enabled / best_disabled,
        "timeline_seconds": best_timeline,
        "timeline_overhead_ratio": best_timeline / best_disabled,
        "disabled_samples": disabled,
        "enabled_samples": enabled,
        "timeline_samples": timeline,
        "enabled_phase_self_seconds": phase_self_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="3 repeats instead of 7 (CI smoke)"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_obs_overhead.json"),
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero if enabled/disabled exceeds RATIO (the gate: 1.02)",
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.quick else 7
    print(
        f"telemetry overhead benchmark ({repeats} interleaved repeats)",
        file=sys.stderr,
    )
    measured = run_benchmark(repeats)
    print(f"runs per sample: {measured['runs_per_sample']}")

    record = {
        "reference_point": FIG10_REFERENCE.to_dict(),
        "quick": args.quick,
        "unix_time": time.time(),
        **measured,
    }
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"disabled (best of {repeats}): {measured['disabled_seconds']:.4f}s")
    print(f"enabled  (best of {repeats}): {measured['enabled_seconds']:.4f}s")
    print(f"overhead ratio:               {measured['overhead_ratio']:.4f}x")
    print(f"timeline (best of {repeats}): {measured['timeline_seconds']:.4f}s")
    print(
        "timeline overhead (informational): "
        f"{measured['timeline_overhead_ratio']:.4f}x"
    )
    for name, seconds in sorted(
        measured["enabled_phase_self_seconds"].items(), key=lambda kv: -kv[1]
    ):
        print(f"  phase {name:20s} {seconds:8.4f}s self")
    print(f"recorded to {output}")

    if args.fail_above is not None and measured["overhead_ratio"] > args.fail_above:
        print(
            f"FAIL: telemetry overhead {measured['overhead_ratio']:.4f}x "
            f"exceeds {args.fail_above:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
