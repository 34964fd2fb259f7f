"""Shared settings for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series.  By default the simulation-based benchmarks run
on a scaled-down system (see ``repro.experiments.common.scaled_system``)
with a reduced workload subset so that the whole suite completes in a few
minutes; set the environment variable ``REPRO_BENCH_FULL=1`` to run every
Table 2 workload on a larger system (much slower, closer to the paper's
setup).

The simulation-based benchmarks share one :class:`repro.engine.runner.
ParallelRunner` (the ``engine_runner`` fixture): points are sharded across
``$REPRO_BENCH_WORKERS`` processes (default: the CPU count) and finished
points persist in a content-addressed store under
``benchmarks/.engine-cache/``, so re-running the suite only simulates
points whose parameters changed.  Note the flip side for the *reported
timings*: figures share points (fig10's chosen designs appear in fig09's
sweep and fig11's worst cases), so later benchmarks in a session — and
every benchmark on a warm re-run — largely measure cache lookups, not
simulation.  The per-figure numbers answer "how long does regenerating
this figure take *now*", not "how expensive is this figure cold";
``bench_engine_parallel`` deliberately bypasses the shared store for its
cold/warm and serial/parallel comparisons.  Delete the cache directory —
or run ``repro-run cache clear`` with ``$REPRO_RESULT_STORE`` pointed
at it — to force cold runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine import ParallelRunner, ResultStore
from repro.workloads.suite import WORKLOAD_NAMES

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")

#: Shared on-disk result store for the benchmark suite.
ENGINE_CACHE = Path(__file__).resolve().parent / ".engine-cache" / "results.jsonl"


@pytest.fixture(scope="session")
def bench_scale() -> int:
    """Cache-capacity scale factor (1 = the paper's full-size system)."""
    return 8 if FULL_MODE else 32


@pytest.fixture(scope="session")
def bench_measure() -> int:
    """Measured accesses per simulation point."""
    return 100_000 if FULL_MODE else 12_000


@pytest.fixture(scope="session")
def bench_workloads() -> list:
    """Workload subset: the full Table 2 suite in full mode, otherwise one
    representative workload per category (OLTP, DSS, Web, scientific)."""
    if FULL_MODE:
        return list(WORKLOAD_NAMES)
    return ["Oracle", "Qry17", "Apache", "ocean"]


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Worker processes for the shared engine runner."""
    override = os.environ.get("REPRO_BENCH_WORKERS")
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def engine_runner(bench_workers) -> ParallelRunner:
    """Session-wide parallel runner with the persistent benchmark store."""
    return ParallelRunner(workers=bench_workers, store=ResultStore(ENGINE_CACHE))
