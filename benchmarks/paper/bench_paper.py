#!/usr/bin/env python3
"""Whole-paper performance ledger: the 182 paper points, timed end to end
and split by layer.

The paper's evaluation is the union of the registry grids behind fig08-fig12,
the multi-programmed mixes and the Section 5.5 hash ablation: 182 unique
simulation points.  This benchmark partitions them into three simulation
workloads, each dominated by a different layer, plus one workload for the
engine around the simulator::

    cuckoo-tight   cuckoo points without a mix or hash override, provisioned
                   below 0.75x (displacement walks, vector drain)
    cuckoo-roomy   every other cuckoo point (hit kernel, trace production)
    baselines      the sparse and skewed points (scalar drain)
    sweep-report   the whole grid at quick scale through ParallelRunner into
                   a fresh store, a warm re-sweep and four figure reports

The three simulation workloads run serially in one process, so their
``wall_s`` values sum to the whole-paper serial time.

Each point is driven from outside, mirroring ``common.run_workload`` line
for line (:func:`simulate`), so timing wrappers can sit on the public layer
calls without touching ``src/``.  Usage::

    python3 benchmarks/paper/bench_paper.py --workload cuckoo-tight --seed 0
    python3 benchmarks/paper/bench_paper.py --workload baselines --trace 1 \\
        --spans-out spans.jsonl

``--trace 0`` measures with telemetry off and prints the end-to-end metrics;
``--trace 1`` repeats the workload with ``repro.obs`` enabled and the
benchmark's own spans on, and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# The benchmark always measures the checkout it sits in, never an installed
# copy of the package.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")

from repro import obs  # noqa: E402
from repro.coherence.simulator import TraceSimulator  # noqa: E402
from repro.coherence.system import TiledCMP  # noqa: E402
from repro.config import CacheLevel  # noqa: E402
from repro.engine import cli  # noqa: E402
from repro.engine.execute import directory_factory_for_spec, resolve_workload  # noqa: E402
from repro.engine.registry import EXPERIMENTS  # noqa: E402
from repro.engine.results import RunResult  # noqa: E402
from repro.engine.runner import ParallelRunner  # noqa: E402
from repro.engine.spec import RunGrid, RunSpec  # noqa: E402
from repro.engine.store import ResultStore  # noqa: E402
from repro.experiments import common  # noqa: E402

EXPECTED = HERE / "expected"

SIM_WORKLOADS = ("cuckoo-tight", "cuckoo-roomy", "baselines")
WORKLOADS = SIM_WORKLOADS + ("sweep-report",)

#: The sweep-report grid: every paper point on tiny caches with a short
#: window, so the pool, the store and the reports dominate.
QUICK = {"scale": 64, "measure_accesses": 4000}

#: Pool size of the sweep-report cold sweep.  Fixed rather than the CPU
#: count so the workload is the same on every host.
WORKERS = 2

#: Figure reports rendered from the store by sweep-report.
FIGURES = ("fig08", "fig09", "fig10", "fig12")

#: Experiments that own simulation points (the warm re-sweep runs them all).
SIMULATED = tuple(name for name, exp in EXPERIMENTS.items() if exp.grid is not None)

#: Set-up sweeps over a workload's points behind ``setup_s``; the median
#: sweep is reported.
SETUP_REPEATS = 5

#: RunResult fields excluded from equality: they describe the execution.
_EXECUTION_FIELDS = ("elapsed_seconds", "worker")


# -- the point grid ------------------------------------------------------------


def paper_grid(seed: int = 0, **overrides: int) -> RunGrid:
    """The union of every registry grid, in registry order.

    ``overrides`` (``scale``, ``measure_accesses``) are passed to each
    experiment's ``grid()``, as ``repro-run run`` does.
    """
    grid = RunGrid()
    for name in SIMULATED:
        grid = grid + EXPERIMENTS[name].grid(seed=seed, **overrides)
    return grid


def workload_of(spec: RunSpec) -> str:
    """The simulation workload a paper point belongs to."""
    if spec.organization != "cuckoo":
        return "baselines"
    if spec.mix is None and spec.hash_family is None and spec.provisioning < 0.75:
        return "cuckoo-tight"
    return "cuckoo-roomy"


def workload_specs(workload: str, seed: int = 0) -> List[RunSpec]:
    """The points a workload runs, in grid order."""
    if workload == "sweep-report":
        return list(paper_grid(seed, **QUICK))
    return [spec for spec in paper_grid(seed) if workload_of(spec) == workload]


# -- results -----------------------------------------------------------------


def compare_fields(result: RunResult) -> Dict[str, object]:
    """The JSON form of the fields RunResult equality covers."""
    payload = result.to_dict()
    for name in _EXECUTION_FIELDS:
        payload.pop(name)
    return json.loads(json.dumps(payload))


def stats_digest(results: Sequence[RunResult]) -> str:
    """sha256 over the compare fields of every point, in grid order."""
    text = json.dumps([compare_fields(r) for r in results], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(name: str) -> Dict[str, Dict[str, object]]:
    """``{spec key: compare fields}`` from ``expected/<name>.json``."""
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return {entry["key"]: entry["result"] for entry in json.load(handle)}


def result_problems(spec: RunSpec, result: RunResult) -> List[str]:
    """Seed-independent checks every correct point passes."""
    problems = []
    if result.spec != spec:
        problems.append("result belongs to another spec")
    if result.accesses != spec.measure_accesses:
        problems.append(f"measured {result.accesses} of {spec.measure_accesses} accesses")
    if not 0.0 <= result.cache_hit_rate <= 1.0:
        problems.append(f"cache hit rate {result.cache_hit_rate}")
    histogram = dict(result.attempt_histogram)
    if sum(histogram.values()) != result.insertions:
        problems.append("attempt histogram does not count every insertion")
    if sum(k * v for k, v in histogram.items()) != result.insertion_attempts:
        problems.append("attempt histogram does not sum to the insertion attempts")
    if result.insertions and (
        result.average_insertion_attempts != result.insertion_attempts / result.insertions
        or result.forced_invalidation_rate != result.forced_invalidations / result.insertions
    ):
        problems.append("derived rates disagree with their counts")
    if not 0 <= result.forced_invalidations <= result.insertions:
        problems.append("more forced invalidations than insertions")
    if result.total_messages <= 0 or result.directory_capacity_total <= 0:
        problems.append("no traffic or no directory capacity")
    return problems


# -- spans -------------------------------------------------------------------


_NULL_SPAN = contextlib.nullcontext()


class SpanRecorder:
    """In-memory spans at the layer boundaries the benchmark calls into.

    Each span is ``[name, start, end, parent, point]``: seconds since the
    recorder was created, the index of the enclosing span (or ``None``), and
    the index of the point being simulated (or ``None``).  A disabled
    recorder hands out one inert span and wraps nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.point: Optional[int] = None
        self._stack: List[int] = []
        self._origin = perf_counter()

    @contextlib.contextmanager
    def _live_span(self, name: str) -> Iterator[None]:
        record = [name, perf_counter() - self._origin, None,
                  self._stack[-1] if self._stack else None, self.point]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter() - self._origin
            self._stack.pop()

    def span(self, name: str):
        return self._live_span(name) if self.enabled else _NULL_SPAN

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a ``name`` span."""
        span = self._live_span

        def timed(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return timed

    def timed_chunks(self, chunks: Iterable) -> Iterator:
        """``chunks`` with every ``next()`` recorded as a ``trace`` span."""
        iterator = iter(chunks)
        while True:
            with self._live_span("trace"):
                chunk = next(iterator, None)
            if chunk is None:
                return
            yield chunk

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``{count, total, self}``; self time excludes child spans."""
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent, _point in self.spans:
            if parent is not None:
                child_seconds[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _point) in enumerate(self.spans):
            entry = totals.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_seconds[index]
        return totals

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """One JSON header line, then one JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta) + "\n")
            for index, (name, start, end, parent, point) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "point": point,
                }) + "\n")


NULL_RECORDER = SpanRecorder(enabled=False)


# -- outside-in simulation -----------------------------------------------------


def build(spec: RunSpec, recorder: SpanRecorder = NULL_RECORDER) -> tuple:
    """Everything a point needs before its first access, as ``execute_spec``
    and ``common.run_workload`` build it."""
    with recorder.span("setup.system"):
        config = common.scaled_system(
            CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
        )
    with recorder.span("setup.workload"):
        workload = resolve_workload(spec, config)
    with recorder.span("setup.system"):
        factory = directory_factory_for_spec(spec, config)
        system = TiledCMP(config, factory)
        warmup = spec.warmup_accesses
        if warmup is None:
            warmup = workload.recommended_warmup(config)
        simulator = TraceSimulator(
            system,
            warmup_accesses=warmup,
            occupancy_sample_interval=spec.occupancy_sample_interval,
            timeline_interval=spec.timeline_interval,
        )
    return config, workload, system, simulator


def simulate(spec: RunSpec, recorder: SpanRecorder = NULL_RECORDER) -> RunResult:
    """Simulate one point from outside; equal to ``execute_spec(spec)``.

    With an enabled recorder, trace production, ``access_batch`` and
    ``sample_occupancy`` are timed by wrappers installed on this point's
    objects only.
    """
    started = perf_counter()
    config, workload, system, simulator = build(spec, recorder)
    chunks = workload.trace_chunks(config, seed=spec.seed)
    if recorder.enabled:
        system.access_batch = recorder.wrap("access_batch", system.access_batch)
        system.sample_occupancy = recorder.wrap("occupancy", system.sample_occupancy)
        chunks = recorder.timed_chunks(chunks)
    with recorder.span("run_chunks"):
        result = simulator.run_chunks(chunks, max_accesses=spec.measure_accesses)
    run = common.WorkloadRun(
        workload=workload.name,
        tracked_level=config.tracked_level,
        result=result,
        tracked_frames_total=config.num_tracked_caches
        * config.tracked_cache_config.num_frames,
        directory_capacity_total=sum(d.capacity for d in system.directories),
    )
    return RunResult.from_workload_run(
        spec, run, elapsed_seconds=perf_counter() - started, worker=str(os.getpid())
    )


def measure_setup(specs: Sequence[RunSpec]) -> float:
    """Median over ``SETUP_REPEATS`` sweeps of the summed build time of
    every point.

    The collector is paused around each build and the build's garbage is
    collected untimed after it, as ``run_chunks`` pauses it around the
    access loop: otherwise a collection of whatever else the process holds
    lands in whichever build happens to trigger it.
    """
    sums = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for spec in specs:
            gc.disable()
            try:
                started = perf_counter()
                build(spec)
                total += perf_counter() - started
            finally:
                gc.enable()
            gc.collect(0)
        sums.append(total)
    return statistics.median(sums)


# -- one pass of a workload ------------------------------------------------------


@dataclass
class Pass:
    """One timed execution of a workload's operations."""

    wall: float = 0.0
    results: List[Optional[RunResult]] = field(default_factory=list)
    point_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)
    store_bytes: int = 0
    store_files: int = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def simulation_pass(
    specs: Sequence[RunSpec], recorder: SpanRecorder = NULL_RECORDER
) -> Pass:
    """Every point of a simulation workload, serially in this process."""
    run = Pass(attempted=len(specs))
    started = perf_counter()
    for index, spec in enumerate(specs):
        recorder.point = index
        point_started = perf_counter()
        try:
            result = simulate(spec, recorder)
        except Exception:
            result = None
            run.fail(f"{spec.label()} raised:\n{traceback.format_exc()}")
        run.point_seconds.append(perf_counter() - point_started)
        run.results.append(result)
    recorder.point = None
    run.wall = perf_counter() - started
    return run


def _cli(argv: Sequence[str]) -> Tuple[int, str]:
    """Run ``repro-run`` in-process; returns the exit code and its output."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        code = cli.main([str(arg) for arg in argv])
    return code, output.getvalue()


def _tree_size(path: Path) -> Tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def sweep_pass(seed: int, workdir: Path, recorder: SpanRecorder = NULL_RECORDER) -> Pass:
    """The quick-scale grid pooled into a fresh store, re-swept warm, and
    rendered as the figure reports, all through the public engine API."""
    store_path = workdir / "results.jsonl"
    quick = ["--scale", QUICK["scale"], "--measure-accesses", QUICK["measure_accesses"],
             "--seed", seed, "--store", store_path]
    run = Pass()
    timings = run.timings
    started = perf_counter()

    mark = perf_counter()
    with recorder.span("grid"):
        grid = paper_grid(seed, **QUICK)
    with recorder.span("store_open"):
        store = ResultStore(store_path)
    run.setup = perf_counter() - mark

    mark = perf_counter()
    with recorder.span("cold_sweep"):
        report = ParallelRunner(workers=WORKERS, store=store).run(grid)
    timings["cold_sweep"] = perf_counter() - mark
    run.attempted += len(grid)
    for spec in grid:
        result = report.results.get(spec.key())
        run.results.append(result)
        run.point_seconds.append(result.elapsed_seconds if result else 0.0)
        if result is None:
            run.fail(f"{spec.label()} failed: {report.failures[spec.key()]}")
    run.store_bytes, run.store_files = _tree_size(workdir)

    mark = perf_counter()
    with recorder.span("warm_sweep"):
        code, output = _cli(["run", *SIMULATED, "--workers", WORKERS, "-q", *quick])
    timings["warm_sweep"] = perf_counter() - mark
    run.attempted += 1
    if code != 0 or _tree_size(workdir) != (run.store_bytes, run.store_files):
        run.fail(f"warm re-sweep exited {code} or simulated points:\n{output}")

    mark = perf_counter()
    for figure in FIGURES:
        out = workdir / f"{figure}.json"
        with recorder.span(f"report.{figure}"):
            code, output = _cli(["report", figure, "--reference", "--format", "json",
                                 "--out", out, *quick])
        run.attempted += 1
        if code != 0:
            run.fail(f"report {figure} exited {code}:\n{output}")
            continue
        problem = _figure_problem(figure, json.loads(out.read_text(encoding="utf-8")), seed)
        if problem:
            run.fail(problem)
    timings["reports"] = perf_counter() - mark
    run.wall = perf_counter() - started
    return run


def _figure_problem(figure: str, payload: Dict[str, object], seed: int) -> Optional[str]:
    expected = json.loads((EXPECTED / f"{figure}.json").read_text(encoding="utf-8"))
    if seed == 0:
        return None if payload == expected else f"report {figure} differs from expected/"
    shape = {label: sorted(points) for label, points in expected["series"].items()}
    got = {label: sorted(points) for label, points in payload["series"].items()}
    return None if got == shape else f"report {figure} has other series than expected/"


# -- checks and metrics ----------------------------------------------------------


def check_points(specs: Sequence[RunSpec], run: Pass, seed: int, expected: str) -> None:
    """Mark every wrong point of ``run`` failed (exact values at seed 0)."""
    reference = load_expected(expected) if seed == 0 else None
    for spec, result in zip(specs, run.results):
        if result is None:
            continue
        problems = result_problems(spec, result)
        if reference is not None and compare_fields(result) != reference.get(spec.key()):
            problems.append("differs from expected/")
        if problems:
            run.fail(f"{spec.label()}: {'; '.join(problems)}")


def check_same(label: str, first: Pass, second: Pass) -> List[str]:
    """Problems if two passes over the same points disagree anywhere."""
    if [r and compare_fields(r) for r in first.results] != [
        r and compare_fields(r) for r in second.results
    ]:
        return [f"{label}: results differ"]
    return []


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, results: Sequence[RunResult]) -> Dict[str, float]:
    """Simulation-layer metrics of one traced pass (telemetry on throughout)."""
    own = recorder.totals()
    program = obs.TRACER.totals()
    counters = obs.REGISTRY.snapshot()["counters"]

    def own_total(name: str) -> float:
        return own.get(name, {}).get("total", 0.0)

    def program_self(name: str) -> float:
        return program.get(name, {}).get("self_seconds", 0.0)

    accesses = counters.get("sim.batch.accesses", 0)
    drained = counters.get("sim.batch.drained", 0)
    vector = counters.get("sim.drain.vector_resolved", 0)
    insertions = sum(r.insertions for r in results)
    return {
        "setup.system_s": own_total("setup.system"),
        "setup.workload_s": own_total("setup.workload"),
        "trace.s": own_total("trace"),
        "trace.chunks": own.get("trace", {}).get("count", 0),
        "run_loop.s": own.get("run_chunks", {}).get("self", 0.0),
        "occupancy.s": own_total("occupancy"),
        "sim.accesses": accesses,
        "sim.us_per_access": 1e6 * _ratio(own_total("run_chunks"), accesses),
        "translate.s": program_self("translate"),
        "hit_kernel.s": program_self("hit_kernel"),
        "kernel.retire_ratio": _ratio(counters.get("sim.batch.kernel_hits", 0), accesses),
        "drain.dragged_hit_ratio": _ratio(counters.get("sim.drain.class_hits", 0), drained),
        "drain_vector.s": program_self("drain_vector"),
        "drain.vector_share": _ratio(
            vector, vector + counters.get("sim.drain.scalar_fallback", 0)
        ),
        "drain.walks": counters.get("sim.drain.class_walks", 0),
        "drain.rollbacks": counters.get("sim.batch.rollbacks", 0),
        "drain_scalar.s": program_self("drain_scalar"),
        "dir.insertions": insertions,
        "dir.attempts_per_insert": _ratio(
            sum(r.insertion_attempts for r in results), insertions
        ),
        "dir.forced_invalidations": sum(r.forced_invalidations for r in results),
        "cache.hit_rate": statistics.fmean(r.cache_hit_rate for r in results),
        "noc.messages": sum(r.total_messages for r in results),
    }


def point_metrics(seconds: Sequence[float]) -> Dict[str, float]:
    _p25, p50, p75 = statistics.quantiles(seconds, n=4)
    return {
        "point.count": len(seconds),
        "point.p50_s": p50,
        "point.p75_s": p75,
        "point.max_s": max(seconds),
    }


# -- the benchmark ---------------------------------------------------------------


def _passes(seconds: float, one_pass: Callable[[], Pass]) -> List[Pass]:
    """Whole passes while the next one is expected to end within ``seconds``
    of the first's start; always at least one."""
    runs = [one_pass()]
    spent = runs[0].wall
    while spent + runs[-1].wall <= seconds:
        runs.append(one_pass())
        spent += runs[-1].wall
    return runs


def _warm_up(spec: RunSpec) -> None:
    """One untimed quick-scale point: imports and lazy set-up finish first."""
    simulate(replace(spec, **QUICK))


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> Tuple[Dict[str, float], Pass, str, Optional[SpanRecorder]]:
    """Measure ``workload``.

    Returns ``(metrics, accounting, stats_digest, recorder)``: the recorder
    of the traced repeat, or ``None`` without ``trace``.
    """
    specs = workload_specs(workload, seed)
    expected = "quick_points" if workload == "sweep-report" else "paper_points"
    _warm_up(specs[0])

    def one_sweep_pass(recorder: SpanRecorder = NULL_RECORDER) -> Pass:
        fresh = Path(tempfile.mkdtemp(dir=workdir))
        try:
            return sweep_pass(seed, fresh, recorder)
        finally:
            shutil.rmtree(fresh, ignore_errors=True)

    if workload == "sweep-report":
        runs = _passes(seconds, one_sweep_pass)
    else:
        runs = _passes(seconds, lambda: simulation_pass(specs))
    accounting = Pass(attempted=sum(r.attempted for r in runs))
    for run in runs:
        check_points(specs, run, seed, expected)
        accounting.failed += run.failed
        accounting.problems += run.problems
    for later in runs[1:]:
        accounting.problems += check_same("repeated pass", runs[0], later)
    first = runs[0]
    digest = stats_digest([r for r in first.results if r is not None])
    setup = statistics.median(r.setup for r in runs) + measure_setup(specs)
    metrics: Dict[str, float] = {
        "wall_s": statistics.median(r.wall for r in runs),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not trace:
        return metrics, accounting, digest, None

    # The traced repeat: telemetry on, the benchmark's own spans on.
    recorder = SpanRecorder()
    obs.enable()
    try:
        obs.reset()
        if workload == "sweep-report":
            traced = one_sweep_pass(recorder)
            # The pool's points ran in workers; replay them here, traced, so
            # the simulation layers are measured the same way as elsewhere.
            obs.reset()
            replay = simulation_pass(specs, recorder)
            accounting.problems += check_same("in-process replay", first, replay)
            layers = layer_metrics(recorder, [r for r in replay.results if r])
        else:
            traced = simulation_pass(specs, recorder)
            layers = layer_metrics(recorder, [r for r in traced.results if r])
    finally:
        obs.disable()
        obs.reset()
    accounting.problems += check_same("traced pass", first, traced)
    accounting.attempted += traced.attempted
    accounting.failed += traced.failed
    accounting.problems += traced.problems
    layers.update(point_metrics(first.point_seconds))
    timings = first.timings
    layers.update({
        "runner.cold_sweep_s": timings.get("cold_sweep", 0.0),
        "runner.pool_efficiency": _ratio(
            sum(first.point_seconds), WORKERS * timings.get("cold_sweep", 0.0)
        ),
        "store.warm_sweep_s": timings.get("warm_sweep", 0.0),
        "store.bytes": first.store_bytes,
        "store.files": first.store_files,
        "report.figures_s": timings.get("reports", 0.0),
        "trace_overhead": traced.wall / first.wall,
    })
    return {**metrics, **layers}, accounting, digest, recorder


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="seed of every point (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measuring budget: whole passes are repeated while the next one "
        "is expected to fit (at least one pass; default 20)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: repeat the workload traced and print the per-layer metrics",
    )
    parser.add_argument(
        "--spans-out", type=Path, default=None,
        help="with --trace 1: write the recorded spans here as JSON lines",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Stores and reports of sweep-report live here, inside the checkout.
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        metrics, accounting, digest, recorder = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None and args.spans_out is not None:
        recorder.write(args.spans_out, {"workload": args.workload, "seed": args.seed})
    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    for problem in accounting.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"stats_digest {digest}")
    for name, unit in end_to_end + (per_layer if args.trace else []):
        print(f"  {name:<26} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not accounting.problems,
        "attempted": accounting.attempted,
        "failed": accounting.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (per_layer if args.trace else end_to_end)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
