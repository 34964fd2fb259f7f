#!/usr/bin/env python3
"""Record a baseline of the whole-paper benchmark: sets of runs on one commit.

Each set runs every workload once per seed, alternating workloads so slow
drift of the host lands on all of them; then traced runs of every workload
follow at ``TRACED_SEEDS``.  Writes to ``--out``:

* ``runs.jsonl``   - one line per untraced run (set, seed, workload, result);
* ``traced.jsonl`` - one line per traced run (the per-layer metrics);
* ``summary.json`` - host, per-set median and quartile spread of every
  end-to-end metric, the ratio of the set medians, and whether every
  ``stats_digest`` repeats across sets and traced runs.

The spread is ``(q3 - q1) / median`` with ``statistics.quantiles(n=4)``.
Usage, from the repository root (about 40 minutes on a 2-core host)::

    python3 benchmarks/paper/baseline.py --out benchmarks/paper/baseline
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench_paper.py"

#: Two sets of ten seeded runs; the summary compares their medians.
SETS = 2
SEEDS = 10

#: Seeds of the traced runs.  One traced run pairs one traced pass with one
#: untraced pass, so its trace_overhead is a single noisy ratio; the summary
#: reports the median over these seeds.
TRACED_SEEDS = (0, 1, 2)


def run_once(workload: str, seed: int, trace: int, seconds: int) -> Dict[str, object]:
    """One benchmark run in its own process: its digest and its result line."""
    completed = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("stats_digest"))
    return {"workload": workload, "seed": seed, "stats_digest": digest,
            **json.loads(lines[-1])}


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(runs: List[dict], traced: List[dict], declared: dict) -> Dict[str, object]:
    workloads = [w["name"] for w in declared["workloads"]]
    sets = sorted({run["set"] for run in runs})
    metrics = {}
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            per_set = [
                spread([r["metrics"][name]["value"] for r in runs
                        if r["workload"] == workload and r["set"] == s])
                for s in sets
            ]
            metrics[f"{workload}/{name}"] = {
                "bound": metric["bound"],
                "sets": per_set,
                "last_over_first_median": per_set[-1]["median"] / per_set[0]["median"],
            }
    digests: Dict[tuple, set] = {}
    for run in runs + traced:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["stats_digest"])
    return {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "runs": len(runs),
        "traced_runs": len(traced),
        "all_correct": all(r["correct"] for r in runs + traced),
        "failed": sum(r["failed"] for r in runs + traced),
        "digests_repeat": all(len(found) == 1 for found in digests.values()),
        "trace_overhead": {
            workload: statistics.median(
                r["metrics"]["trace_overhead"]["value"]
                for r in traced if r["workload"] == workload
            )
            for workload in workloads
        },
        "end_to_end": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    runs: List[dict] = []
    with open(args.out / "runs.jsonl", "w", encoding="utf-8") as log:
        for number in range(1, SETS + 1):
            for seed in range(SEEDS):
                for workload in workloads:
                    run = {"set": number, **run_once(workload, seed, 0, seconds)}
                    runs.append(run)
                    log.write(json.dumps(run) + "\n")
                    log.flush()
    traced: List[dict] = []
    with open(args.out / "traced.jsonl", "w", encoding="utf-8") as log:
        for seed in TRACED_SEEDS:
            for workload in workloads:
                traced.append(run_once(workload, seed, 1, seconds))
                log.write(json.dumps(traced[-1]) + "\n")
                log.flush()
    summary = summarize(runs, traced, declared)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
