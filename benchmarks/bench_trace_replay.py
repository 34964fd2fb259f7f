#!/usr/bin/env python
"""Trace replay vs. live generation on the Figure 10 reference point.

Measures the cost of *producing* the access stream — what the trace
subsystem removes from every repeated run — on the Figure 10 reference
point (Oracle, Shared-L2 chosen design, scale 16, 40 000 measured
accesses plus warm-up):

* ``generate_seconds`` — drain the live ``Workload.trace_chunks`` stream
  for the run's full access budget (RNG draws, then the compiled
  ``synthetic`` kernel's selection and Zipf inverse-CDF lookups);
* ``replay_seconds`` — drain the same accesses from a recorded trace
  (memory-mapped array slicing);
* ``record_seconds`` — the one-off cost of making the recording;
* ``end_to_end_live`` / ``end_to_end_replay`` — full simulations of the
  reference point from each source (identical results, see the
  record→replay golden tests).  These are *context only*: simulation time
  dominates both, so their ratio hovers near 1.0 and says nothing about
  the trace subsystem (an earlier ``end_to_end_speedup`` metric derived
  from them was retired for exactly that reason).

The gated claim is the stream-production ratio: ``replay_speedup =
generate_seconds / replay_seconds`` must be **≥ 3x** — that is the cost
the subsystem removes from every repeated run.  Everything is recorded to
``BENCH_trace_replay.json``; ``--fail-below`` turns the claim into an
exit code for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_replay.py            # full
    PYTHONPATH=src python benchmarks/bench_trace_replay.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_trace_replay.py --fail-below 3.0

Like ``bench_hot_path.py``, this script bypasses the engine's result
store: a cached result would time a cache lookup, not the replay path.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import CacheLevel  # noqa: E402
from repro.engine.execute import execute_spec  # noqa: E402
from repro.engine.spec import RunSpec  # noqa: E402
from repro.experiments.common import scaled_system  # noqa: E402
from repro.traces import TraceRecorder, TraceReplayWorkload, accesses_for_run  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

#: The Figure 10 reference point (same as bench_hot_path.py).
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

#: Minimum stream-production speedup the trace subsystem promises.
TARGET_SPEEDUP = 3.0

#: Replay stream production is zero-copy array slicing (~0.1 ms per full
#: drain), far below what one perf_counter window measures reliably; each
#: timed sample drains this many times and reports the mean.
REPLAY_DRAIN_REPEATS = 25


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _drain(chunks, budget: int) -> int:
    """Consume ``budget`` accesses from a chunk stream (the producer cost)."""
    seen = 0
    for cores, _addresses, _writes, _instrs in chunks:
        seen += len(cores)
        if seen >= budget:
            break
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single repeat and a smaller access budget (CI smoke)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_trace_replay.json"),
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--fail-below", type=float, default=None, metavar="RATIO",
        help="exit non-zero if the replay speedup is below RATIO",
    )
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else 3
    spec = FIG10_REFERENCE
    if args.quick:
        spec = RunSpec.from_dict({**spec.to_dict(), "measure_accesses": 8_000})

    system = scaled_system(
        CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
    )
    workload = get_workload(spec.workload)
    budget = accesses_for_run(workload, system, spec.measure_accesses)
    print(
        f"trace-replay benchmark: {spec.workload} scale={spec.scale}, "
        f"{budget} accesses, {repeats} repeat(s)",
        file=sys.stderr,
    )

    with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
        trace_path = Path(tmp) / "reference.npz"

        def record() -> None:
            TraceRecorder().record(
                workload, system, trace_path, budget, seed=spec.seed, scale=spec.scale
            )

        current: Dict[str, float] = {}
        current["record_seconds"] = _best_of(record, 1)  # one-off by design

        def generate() -> None:
            _drain(workload.trace_chunks(system, seed=spec.seed), budget)

        # Opened once, replayed many times — that is the subsystem's whole
        # usage model, so the one-off open/mmap cost is not part of the
        # per-replay stream-production time.
        recording = TraceReplayWorkload(trace_path)

        def replay() -> None:
            for _ in range(REPLAY_DRAIN_REPEATS):
                _drain(recording.trace_chunks(system, seed=spec.seed), budget)

        def end_to_end_live() -> None:
            execute_spec(spec)

        replay_spec = RunSpec.from_dict({**spec.to_dict(), "trace": str(trace_path)})

        def end_to_end_replay() -> None:
            execute_spec(replay_spec)

        for name, bench in (
            ("generate_seconds", generate),
            ("replay_seconds", replay),
            ("end_to_end_live_seconds", end_to_end_live),
            ("end_to_end_replay_seconds", end_to_end_replay),
        ):
            bench()  # warm up (page cache, sigma tables, imports)
            current[name] = _best_of(bench, repeats)
            if name == "replay_seconds":
                current[name] /= REPLAY_DRAIN_REPEATS
            print(f"  {name:28s} {current[name]:9.4f}s", file=sys.stderr)
        trace_bytes = trace_path.stat().st_size

    replay_speedup = (
        current["generate_seconds"] / current["replay_seconds"]
        if current["replay_seconds"] > 0
        else float("inf")
    )
    record_payload = {
        "reference_point": spec.to_dict(),
        "quick": args.quick,
        "accesses": budget,
        "trace_bytes": trace_bytes,
        "current_seconds": current,
        "replay_speedup_vs_generation": replay_speedup,
        "target_speedup": TARGET_SPEEDUP,
        "unix_time": time.time(),
    }
    output = Path(args.output)
    output.write_text(json.dumps(record_payload, indent=2, sort_keys=True) + "\n")

    print(f"\n{'metric':28s} {'seconds':>9s}")
    for name, value in current.items():
        print(f"{name:28s} {value:8.4f}s")
    print(f"\nstream production: replay is {replay_speedup:.2f}x faster than generation")
    print(
        "end-to-end times above are context only (simulation dominates both "
        "runs; their ratio is not a trace-subsystem metric)"
    )
    print(f"recorded to {output}")

    threshold = args.fail_below
    if threshold is not None and replay_speedup < threshold:
        print(
            f"FAIL: replay speedup {replay_speedup:.2f}x below {threshold:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
