#!/usr/bin/env python
"""Hot-path benchmark: before/after numbers for the allocation-free rewrite.

Measures the per-access simulation hot path end-to-end on the Figure 10
reference point (Oracle workload, Shared-L2 chosen design, scale 16,
40 000 measured accesses) plus three component microbenchmarks, compares
each against the pinned pre-rewrite baseline, and records everything to
``BENCH_hot_path.json``.

The baseline numbers were measured on the pre-rewrite tree interleaved
with the rewritten tree on the same machine (alternating runs, best of
three each) so machine-load drift cancels out of the ratio.  Absolute
numbers on another machine will differ; the *ratio* is the claim:

* end-to-end fig10 reference point: >= 6x vs the pre-PR-2 tree, i.e.
  >= 1.8x on top of PR 2's allocation-free rewrite (the array-native
  core: flat-state caches, integer coherence protocol, batched chunk
  front-end, candidate-index caching);
* cuckoo insert/remove through the table's Python API: ~1.3x (it now
  hashes every operation's key, with no locator or index cache);
* skewing index throughput: ~200x, as the metric now times the compiled
  hashing the drain runs, over the same 50 000 addresses.

The record also carries ``fig10_speedup_vs_prev_committed`` — the fig10
time committed by the previous perf PR divided by the current time —
which is the per-PR claim CI's ``repro-run compare`` gate watches.

The fig10 reference point is *miss-dominated* (the scaled L1s hit only
~21% of accesses), so its time is governed by the drain's miss protocol;
the ``drain_heavy_50k`` metric isolates that further with a ~0% hit-rate
stream.  Both run on the compiled drain (every access of a chunk in trace
order, where the C kernels built), which is what every point of the paper
uses.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_path.py            # full
    PYTHONPATH=src python benchmarks/bench_hot_path.py --quick    # 1 repeat
    PYTHONPATH=src python benchmarks/bench_hot_path.py --output out.json

Unlike the figure benchmarks, this script bypasses the engine's result
store on purpose: a cached result would time a cache lookup, not the
simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import CacheLevel  # noqa: E402
from repro.core import native  # noqa: E402
from repro.core.cuckoo_hash import CuckooHashTable  # noqa: E402
from repro.engine.execute import execute_spec  # noqa: E402
from repro.engine.spec import RunSpec  # noqa: E402
from repro.experiments.common import scaled_system  # noqa: E402
from repro.hashing.skewing import SkewingHashFamily  # noqa: E402
from repro.hashing.strong import StrongHashFamily  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

#: Pre-rewrite timings (seconds), measured on commit 0abe6e5 interleaved
#: with the rewritten tree on the same machine (best of 3 per metric,
#: median of two alternating sessions).
PRE_PR_BASELINE: Dict[str, float] = {
    "fig10_point_seconds": 2.170,
    "cuckoo_6k_ops_seconds": 0.02828,
    "skewing_indices_50k_seconds": 0.24681,
    "trace_100k_seconds": 0.17169,
    # The drain-heavy stream predates no rewrite (the metric was added
    # with the vectorized drain pipeline), so its "before" is the
    # pre-pipeline scalar drain on the same tree, best of 3.
    "drain_heavy_50k_seconds": 0.3268,
}

#: fig10 point time committed with the typed machine over the numpy trace
#: front end (``current_seconds`` of the BENCH_hot_path.json the compiled
#: Zipf and translate kernels replaced).  Their per-PR claim is measured
#: against this.
PREV_COMMITTED_FIG10_SECONDS = 0.0353

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


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _bench_fig10_point() -> None:
    execute_spec(FIG10_REFERENCE)


def _bench_cuckoo() -> None:
    table = CuckooHashTable(4, 1024, hash_family=StrongHashFamily(4, 1024, seed=3))
    for key in range(3000):
        table.insert(key, key)
    for key in range(3000):
        table.remove(key)


_SKEW_DESCRIPTOR = SkewingHashFamily(4, 512).descriptor()
_SKEW_ADDRESSES = np.arange(0, 50_000 * 64, 64, dtype=np.int64)
_SKEW_INDICES = np.empty((4, _SKEW_ADDRESSES.size), dtype=np.int64)


def _bench_skewing() -> None:
    """The drain's own hashing: every address's four skewing indices."""
    native.KERNELS.indices(_SKEW_DESCRIPTOR, _SKEW_ADDRESSES, _SKEW_INDICES)


def _bench_trace() -> None:
    system = scaled_system(CacheLevel.L1, scale=16)
    stream = get_workload("Oracle").trace(system, seed=0)
    for _ in range(100_000):
        next(stream)


_DRAIN_STREAM = None


def _drain_heavy_stream():
    """50k accesses over a footprint ~30x the tracked L1 capacity.

    The hit rate collapses to ~1%, so virtually every access misses: the
    stream isolates the drain's miss protocol from its cheap hit path
    (a stamp write and a position append).  30% writes
    keep the write-miss/invalidation protocol in the mix; the shared
    footprint keeps directory-hit reads (sharer additions, owner
    downgrades) common.  Built once and reused — the arrays, not their
    generation, are what the benchmark times.
    """
    global _DRAIN_STREAM
    if _DRAIN_STREAM is None:
        rng = np.random.default_rng(7)
        n = 50_000
        cores = rng.integers(0, 16, size=n)
        addresses = rng.integers(0, 1 << 16, size=n) << 6
        writes = rng.random(n) < 0.3
        instrs = np.zeros(n, dtype=bool)
        _DRAIN_STREAM = (cores, addresses, writes, instrs)
    return _DRAIN_STREAM


def _bench_drain_heavy() -> None:
    from repro.coherence.system import TiledCMP
    from repro.engine.execute import directory_factory_for_spec

    config = scaled_system(CacheLevel.L1, scale=16)
    factory = directory_factory_for_spec(FIG10_REFERENCE, config)
    system = TiledCMP(config, factory)
    cores, addresses, writes, instrs = _drain_heavy_stream()
    total = len(cores)
    for start in range(0, total, 4096):
        system.access_batch(
            cores, addresses, writes, instrs, start, min(start + 4096, total)
        )


METRICS: Dict[str, Callable[[], None]] = {
    "fig10_point_seconds": _bench_fig10_point,
    "cuckoo_6k_ops_seconds": _bench_cuckoo,
    "skewing_indices_50k_seconds": _bench_skewing,
    "trace_100k_seconds": _bench_trace,
    "drain_heavy_50k_seconds": _bench_drain_heavy,
}


def run_benchmarks(repeats: int) -> Dict[str, float]:
    current: Dict[str, float] = {}
    for name, bench in METRICS.items():
        bench()  # warm up (imports, allocator)
        current[name] = _best_of(bench, repeats)
        print(f"  {name:32s} {current[name]:9.4f}s", file=sys.stderr)
    return current


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="single repeat per metric (CI smoke)"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="timed repeats per metric (best-of-N; default 3, or 1 with "
        "--quick) — raise on noisy hosts to sharpen the minimum",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_hot_path.json"),
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero if the fig10 end-to-end speedup is below RATIO",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats else (1 if args.quick else 3)
    print(f"hot-path benchmark ({repeats} repeat(s) per metric)", file=sys.stderr)
    current = run_benchmarks(repeats)

    speedups = {
        name: PRE_PR_BASELINE[name] / current[name]
        for name in METRICS
        if current[name] > 0
    }
    fig10_vs_prev = (
        PREV_COMMITTED_FIG10_SECONDS / current["fig10_point_seconds"]
        if current["fig10_point_seconds"] > 0
        else float("inf")
    )
    record = {
        "reference_point": FIG10_REFERENCE.to_dict(),
        "quick": args.quick,
        "baseline_pre_pr_seconds": PRE_PR_BASELINE,
        "prev_committed_fig10_seconds": PREV_COMMITTED_FIG10_SECONDS,
        "current_seconds": current,
        "speedup_vs_baseline": speedups,
        "fig10_speedup_vs_prev_committed": fig10_vs_prev,
        "unix_time": time.time(),
    }
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"\n{'metric':32s} {'before':>9s} {'after':>9s} {'speedup':>8s}")
    for name in METRICS:
        print(
            f"{name:32s} {PRE_PR_BASELINE[name]:8.4f}s {current[name]:8.4f}s "
            f"{speedups.get(name, float('nan')):7.2f}x"
        )
    print(
        f"\nfig10 vs previously committed ({PREV_COMMITTED_FIG10_SECONDS:.4f}s): "
        f"{fig10_vs_prev:.2f}x"
    )
    print(f"recorded to {output}")

    fig10_speedup = speedups.get("fig10_point_seconds", 0.0)
    if args.fail_below is not None and fig10_speedup < args.fail_below:
        print(
            f"FAIL: fig10 speedup {fig10_speedup:.2f}x below {args.fail_below:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
