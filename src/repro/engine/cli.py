"""Unified command line for the experiment engine.

Installed as the ``repro-run`` console script and runnable as
``python -m repro.engine``.  Eight subcommands:

``list``
    The available experiments and whether they are simulation-based.
``run``
    Execute one or more figure experiments (or ``all``) through the
    engine: points are sharded across workers and cached results are
    reused, so a second invocation of the same experiment simulates
    nothing.
``sweep``
    An ad-hoc cartesian sweep over workloads, configurations, directory
    organizations, ways, provisioning factors and seeds.
``trace``
    The trace subsystem: ``record`` a workload's stream to a compact
    ``.npz`` trace file, show a recording's ``info``, or ``replay`` a
    recording through the engine.
``mix``
    Run multi-programmed mix scenarios ("8xApache+8xocean") through the
    engine, sweeping configurations and directory organizations.
``report``
    Render any experiment from *cached* results — nothing is simulated —
    as an ASCII table, CSV or JSON, optionally scored against the
    digitized paper curves (``--reference``); or dump/aggregate the whole
    store (``--all``).
``compare``
    Diff two result stores or two ``BENCH_*.json`` records metric-by-
    metric with direction-aware thresholds; ``--fail-on-regression``
    makes regressions exit non-zero for CI gating.
``cache``
    Inspect (``show``/``stats``), compact or clear the content-addressed
    result store, or translate it to/from plain last-wins JSONL
    (``export``/``import``) for migration and interchange.

Examples
--------
::

    repro-run list
    repro-run run fig08 --workers 8 --scale 32 --measure-accesses 12000
    repro-run run all --quiet
    repro-run sweep --workloads Oracle,ocean --organizations cuckoo,sparse \
        --ways 4 --provisionings 0.5,1.0,2.0 --scale 64
    repro-run sweep --workloads Oracle --scale 64 --metrics-out metrics.json \
        --log-level info --log-json
    repro-run trace record Oracle --out traces/oracle.npz --scale 16
    repro-run trace info traces/oracle.npz --verify
    repro-run trace replay traces/oracle.npz
    repro-run mix 8xApache+8xocean 8xOracle+8xQry17 --scale 32
    repro-run report fig08 --store /tmp/results.jsonl
    repro-run report fig10 --reference
    repro-run run fig10 --timeline-interval 1000
    repro-run report fig10 --timeline --channel occupancy,forced_invalidations
    repro-run report mix --format csv --out mix.csv
    repro-run report --all --group-by workload,organization
    repro-run compare baseline.jsonl candidate.jsonl --fail-on-regression
    repro-run compare BENCH_hot_path.json /tmp/BENCH_hot_path.json --threshold 0.2
    repro-run cache
    repro-run cache stats
    repro-run cache compact
    repro-run cache export backup.jsonl
    repro-run cache import backup.jsonl
    repro-run cache clear
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import native
from repro.engine.runner import ParallelRunner
from repro.engine.spec import (
    DEFAULT_MEASURE_ACCESSES,
    DEFAULT_SCALE,
    ORGANIZATIONS,
    RunGrid,
    RunSpec,
)
from repro.engine.store import ResultStore, SealedStoreError, default_store_path
from repro.obs.progress import ProgressRenderer, SweepMonitor

__all__ = ["main", "build_parser"]


def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _csv_int(value: str) -> List[int]:
    return [int(item) for item in _csv(value)]


def _csv_float(value: str) -> List[float]:
    return [float(item) for item in _csv(value)]


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine options")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_ENGINE_WORKERS or CPU count)",
    )
    group.add_argument(
        "--serial",
        action="store_true",
        help="force in-process execution (same as --workers 1)",
    )
    group.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result-store path (default: $REPRO_RESULT_STORE or "
        "~/.cache/repro-cuckoo/results.jsonl)",
    )
    group.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the result store (always simulate)",
    )
    group.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-point progress"
    )
    group.add_argument(
        "--timeline-interval",
        type=int,
        default=None,
        metavar="N",
        help="collect an interval-sampled counter timeline every N measured "
        "accesses per point, stored beside the result store; render with "
        "'repro-run report <experiment> --timeline'",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable telemetry and write a metrics/phase-timing snapshot "
        "to FILE after the run (JSON; see DESIGN.md 'Observability')",
    )
    group.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured run logs on stderr at this level",
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects (implies --log-level info)",
    )


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("simulation options")
    group.add_argument(
        "--workloads",
        type=_csv,
        default=None,
        metavar="A,B,...",
        help="Table 2 workload subset (default: the full suite)",
    )
    group.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"cache-capacity scale factor (default {DEFAULT_SCALE}; 1 = full size)",
    )
    group.add_argument(
        "--measure-accesses",
        type=int,
        default=None,
        help=f"measured accesses per point (default {DEFAULT_MEASURE_ACCESSES})",
    )
    group.add_argument("--seed", type=int, default=None, help="trace seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Parallel, cached execution of the Cuckoo Directory experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser(
        "run", help="run figure experiments through the engine"
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment names (see 'repro-run list') or 'all'",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="instead of running the experiment, wrap one representative "
        "simulation point in cProfile and print the top-20 entries "
        "(analytical experiments profile their full run)",
    )
    run_parser.add_argument(
        "--profile-sort",
        choices=("cumtime", "tottime"),
        default="cumtime",
        help="sort order of the printed profile: cumulative time (default) "
        "or internal time (hot-loop hunting)",
    )
    run_parser.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="also dump the raw pstats data to FILE so before/after "
        "profiles can be diffed with pstats.Stats (single experiment only)",
    )
    _add_sweep_options(run_parser)
    _add_engine_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an ad-hoc cartesian sweep of simulation points"
    )
    sweep_parser.add_argument(
        "--tracked-levels",
        type=_csv,
        default=["L1", "L2"],
        metavar="L1,L2",
        help="system configurations to sweep (default both)",
    )
    sweep_parser.add_argument(
        "--organizations",
        type=_csv,
        default=["cuckoo"],
        metavar=",".join(ORGANIZATIONS),
        help="directory organizations to sweep (default cuckoo)",
    )
    sweep_parser.add_argument(
        "--ways", type=_csv_int, default=[4], metavar="N,...", help="associativities"
    )
    sweep_parser.add_argument(
        "--provisionings",
        type=_csv_float,
        default=[1.0],
        metavar="F,...",
        help="provisioning factors",
    )
    sweep_parser.add_argument(
        "--seeds", type=_csv_int, default=[0], metavar="N,...", help="trace seeds"
    )
    _add_sweep_options(sweep_parser)
    _add_engine_options(sweep_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="record, inspect and replay workload traces"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)

    record_parser = trace_subparsers.add_parser(
        "record", help="record a workload's access stream to a trace file"
    )
    record_parser.add_argument("workload", help="Table 2 workload name")
    record_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output trace path (default traces/<workload>-c<cores>-s<scale>-seed<seed>.npz)",
    )
    record_parser.add_argument(
        "--accesses", type=int, default=None,
        help="accesses to record (default: recommended warm-up + --measure-accesses)",
    )
    record_parser.add_argument(
        "--tracked-level", default="L1", choices=("L1", "L2"),
        help="system configuration the default recording length is sized for",
    )
    record_parser.add_argument("--num-cores", type=int, default=16)
    record_parser.add_argument(
        "--scale", type=int, default=None,
        help=f"cache-capacity scale factor (default {DEFAULT_SCALE})",
    )
    record_parser.add_argument(
        "--measure-accesses", type=int, default=None,
        help=f"measurement window the recording must cover (default {DEFAULT_MEASURE_ACCESSES})",
    )
    record_parser.add_argument("--seed", type=int, default=0)

    info_parser = trace_subparsers.add_parser(
        "info", help="show a trace file's header"
    )
    info_parser.add_argument("path", help="trace file")
    info_parser.add_argument(
        "--verify", action="store_true",
        help="recompute the content fingerprint over the whole file",
    )

    replay_parser = trace_subparsers.add_parser(
        "replay", help="replay a recorded trace through the engine"
    )
    replay_parser.add_argument("path", help="trace file")
    replay_parser.add_argument(
        "--tracked-level", default="L1", choices=("L1", "L2"),
        help="system configuration to replay against (default L1)",
    )
    replay_parser.add_argument(
        "--organization", default="cuckoo", choices=ORGANIZATIONS
    )
    replay_parser.add_argument("--ways", type=int, default=4)
    replay_parser.add_argument("--provisioning", type=float, default=1.0)
    replay_parser.add_argument(
        "--measure-accesses", type=int, default=None,
        help="measured accesses (default: all the trace holds beyond warm-up)",
    )
    _add_engine_options(replay_parser)

    mix_parser = subparsers.add_parser(
        "mix", help="run multi-programmed mix scenarios through the engine"
    )
    mix_parser.add_argument(
        "mixes", nargs="+", metavar="MIX",
        help="mix specs like 8xApache+8xocean (cores x workload, '+'-separated)",
    )
    mix_parser.add_argument(
        "--tracked-levels", type=_csv, default=["L1", "L2"], metavar="L1,L2"
    )
    mix_parser.add_argument(
        "--organizations", type=_csv, default=["cuckoo"],
        metavar=",".join(ORGANIZATIONS),
    )
    mix_parser.add_argument("--ways", type=_csv_int, default=[4], metavar="N,...")
    mix_parser.add_argument(
        "--provisionings", type=_csv_float, default=[1.0], metavar="F,..."
    )
    mix_parser.add_argument("--seeds", type=_csv_int, default=[0], metavar="N,...")
    mix_parser.add_argument("--scale", type=int, default=None)
    mix_parser.add_argument("--measure-accesses", type=int, default=None)
    _add_engine_options(mix_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="render an experiment (or the whole store) from cached results",
    )
    report_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        metavar="EXPERIMENT",
        help="experiment name (see 'repro-run list'); omit with --all",
    )
    report_parser.add_argument(
        "--all",
        action="store_true",
        help="report over every record in the store instead of one experiment",
    )
    report_parser.add_argument(
        "--group-by",
        type=_csv,
        default=None,
        metavar="FIELD,...",
        help="with --all: aggregate records over these spec fields "
        "(mean/geomean of the headline metrics per group)",
    )
    report_parser.add_argument(
        "--format",
        dest="fmt",
        default="ascii",
        choices=("ascii", "csv", "json"),
        help="output format (default ascii)",
    )
    report_parser.add_argument(
        "--reference",
        action="store_true",
        help="append the paper-reference error metrics (digitized figures)",
    )
    report_parser.add_argument(
        "--timeline",
        action="store_true",
        help="report the experiment's stored counter timelines (simulate "
        "them first with --timeline-interval) instead of the figure table",
    )
    report_parser.add_argument(
        "--channel",
        type=_csv,
        default=None,
        metavar="NAME,...",
        help="with --timeline: restrict the report to these channels",
    )
    report_parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the report to a file"
    )
    report_parser.add_argument("--store", default=None, metavar="PATH")
    _add_sweep_options(report_parser)

    compare_parser = subparsers.add_parser(
        "compare",
        help="diff two result stores or two BENCH_*.json records",
    )
    compare_parser.add_argument("baseline", help="baseline store / benchmark file")
    compare_parser.add_argument("candidate", help="candidate store / benchmark file")
    compare_parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative change counting as a regression/improvement (default 0.05)",
    )
    compare_parser.add_argument(
        "--metrics",
        type=_csv,
        default=None,
        metavar="M,...",
        help="restrict the comparison to these metrics (store fields or "
        "benchmark leaf-name substrings)",
    )
    compare_parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any gated metric regressed (CI gating)",
    )
    compare_parser.add_argument(
        "--show-all",
        action="store_true",
        help="list every compared entry, not only the changed ones",
    )
    compare_parser.add_argument(
        "--format",
        dest="fmt",
        default="ascii",
        choices=("ascii", "json"),
        help="output format (default ascii)",
    )
    compare_parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the comparison to a file"
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, compact, clear or export/import the result store"
    )
    cache_parser.add_argument(
        "action",
        nargs="?",
        default="show",
        choices=("show", "stats", "clear", "compact", "export", "import"),
        help="what to do with the store (default: show); 'stats' counts "
        "live entries against the records and bytes of every WAL, "
        "'export'/'import' translate to/from plain last-wins JSONL",
    )
    cache_parser.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="FILE",
        help="JSONL destination for 'export' / source for 'import'",
    )
    cache_parser.add_argument("--store", default=None, metavar="PATH")
    return parser


def _setup_telemetry(args: argparse.Namespace) -> None:
    """Apply the engine telemetry flags before any simulation starts.

    Metrics/tracing are enabled whenever someone will look at them — a
    ``--metrics-out`` dump or the (non ``--quiet``) final phase breakdown.
    The overhead gate (``benchmarks/bench_obs_overhead.py``) keeps the
    enabled path within 2% of disabled, which is what makes on-by-default
    CLI telemetry acceptable.
    """
    from repro import obs

    level = getattr(args, "log_level", None)
    json_lines = bool(getattr(args, "log_json", False))
    if level or json_lines:
        obs.setup_logging(level=level or "info", json_lines=json_lines)
        # The loader logged at import, before this configuration existed.
        obs.get_logger("repro.core.native").info(native.STATUS)
    if getattr(args, "metrics_out", None) or not getattr(args, "quiet", False):
        obs.enable()


def _make_runner(
    args: argparse.Namespace,
) -> Tuple[ParallelRunner, Optional[ProgressRenderer]]:
    """The command's runner and its progress renderer (``None`` under
    ``--quiet``)."""
    store = None
    if not args.no_store:
        store = ResultStore(args.store) if args.store else ResultStore()
    workers = 1 if args.serial else args.workers

    # Progress flows through a SweepMonitor and a throttled renderer: one
    # rewritten line on a TTY, sparse plain lines otherwise — never one
    # unthrottled stderr line per point.  A --metrics-out dump wants the
    # sweep summary even under --quiet, so the monitor outlives the
    # renderer's visibility rules.
    monitor = None
    renderer = None
    progress = None
    tick = None
    if not args.quiet or args.metrics_out:
        monitor = SweepMonitor()
    if not args.quiet:
        renderer = ProgressRenderer()

        def tick() -> None:
            renderer.update(monitor)

        def progress(event: str, done: int, total: int, spec: RunSpec) -> None:
            renderer.update(monitor)

    runner = ParallelRunner(
        workers=workers,
        store=store,
        progress=progress,
        monitor=monitor,
        tick=tick,
        timeline_interval=args.timeline_interval,
    )
    return runner, renderer


def _finish_telemetry(
    args: argparse.Namespace,
    runner: ParallelRunner,
    renderer: Optional[ProgressRenderer],
) -> None:
    """End-of-command telemetry: close the progress line, print the phase
    breakdown, write the ``--metrics-out`` snapshot."""
    from repro import obs

    monitor = runner.monitor
    if renderer is not None and monitor is not None and monitor.total:
        renderer.finish(monitor)
    if not args.quiet:
        totals = obs.TRACER.totals()
        if totals:
            print(obs.render_phase_breakdown(totals), file=sys.stderr)
    if args.metrics_out:
        meta = {"command": args.command, "native": native.STATUS}
        if monitor is not None:
            meta["sweep"] = monitor.snapshot()
        path = obs.export.write_snapshot(args.metrics_out, meta=meta)
        print(f"metrics written to {path}", file=sys.stderr)


@contextmanager
def _engine(args: argparse.Namespace) -> Iterator[ParallelRunner]:
    """The runner lifecycle of every simulating command: telemetry set-up,
    the runner and its renderer, then the closing telemetry."""
    _setup_telemetry(args)
    runner, renderer = _make_runner(args)
    yield runner
    _finish_telemetry(args, runner, renderer)


def _run_grid(args: argparse.Namespace, specs: Sequence[RunSpec]) -> int:
    """Run ``specs`` through the engine and print the sweep table and the
    engine summary; exits 1 if any point failed."""
    with _engine(args) as runner:
        report = runner.run(specs)
    print(_sweep_table(specs, report))
    _print_engine_summary(runner, report)
    return 0 if report.ok else 1


def _scale(args: argparse.Namespace) -> int:
    return args.scale if args.scale is not None else DEFAULT_SCALE


def _measure_accesses(args: argparse.Namespace) -> int:
    if args.measure_accesses is not None:
        return args.measure_accesses
    return DEFAULT_MEASURE_ACCESSES


def _grid_kwargs(experiment, args: argparse.Namespace) -> Dict[str, object]:
    """The ``--workloads``/``--scale``/``--measure-accesses``/``--seed``
    values given that ``experiment``'s grid accepts."""
    return {
        option: value
        for option, value in (
            ("workloads", args.workloads),
            ("scale", args.scale),
            ("measure_accesses", args.measure_accesses),
            ("seed", args.seed),
        )
        if option in experiment.options and value is not None
    }


def _unknown_workloads_message(names: Optional[Sequence[str]]) -> Optional[str]:
    """Friendly error for unknown Table 2 workload names (None when fine)."""
    if not names:
        return None
    from repro.workloads.suite import WORKLOAD_NAMES

    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if not unknown:
        return None
    return (
        f"unknown workload(s): {', '.join(unknown)} "
        f"(expected: {', '.join(WORKLOAD_NAMES)})"
    )


def _cmd_list() -> int:
    from repro.engine.registry import EXPERIMENTS

    width = max(len(name) for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        kind = "simulation" if experiment.simulated else "analytical"
        print(f"{name:<{width}}  [{kind}]  {experiment.title}")
    return 0


def _cmd_profile(names: List[str], args: argparse.Namespace) -> int:
    """Profile one representative point per named experiment (``--profile``)."""
    import cProfile
    import pstats

    from repro.engine.execute import execute_spec
    from repro.engine.registry import EXPERIMENTS, run_experiment

    profile_out = getattr(args, "profile_out", None)
    if profile_out and len(names) > 1:
        print(
            "--profile-out expects exactly one experiment (the dump holds a "
            "single profile)",
            file=sys.stderr,
        )
        return 2
    sort_key = getattr(args, "profile_sort", "cumtime") or "cumtime"

    for name in names:
        experiment = EXPERIMENTS[name]
        if experiment.grid is not None:
            spec = experiment.grid(**_grid_kwargs(experiment, args)).specs[0]
            label = spec.label()

            def target(spec=spec):
                execute_spec(spec)

        else:
            label = "analytical, full run"

            def target(name=name):
                run_experiment(name)

        print(f"== profiling {name}: {label}", file=sys.stderr)
        profiler = cProfile.Profile()
        profiler.enable()
        target()
        profiler.disable()
        pstats.Stats(profiler).sort_stats(sort_key).print_stats(20)
        if profile_out:
            profiler.dump_stats(profile_out)
            print(f"pstats dump written to {profile_out}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.engine.registry import EXPERIMENTS, run_experiment

    names = list(args.experiments)
    if len(names) == 1 and names[0] in ("all", "suite"):
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(expected: {', '.join(EXPERIMENTS)} or 'all')",
            file=sys.stderr,
        )
        return 2
    workload_error = _unknown_workloads_message(args.workloads)
    if workload_error:
        print(workload_error, file=sys.stderr)
        return 2

    if args.profile:
        return _cmd_profile(names, args)

    failures = 0
    with _engine(args) as runner:
        for name in names:
            experiment = EXPERIMENTS[name]
            print(f"== {experiment.title}", file=sys.stderr)
            try:
                _result, table = run_experiment(
                    name,
                    runner=runner,
                    workloads=args.workloads,
                    scale=args.scale,
                    measure_accesses=args.measure_accesses,
                    seed=args.seed,
                )
            except Exception as exc:
                failures += 1
                print(f"{name} failed: {exc}", file=sys.stderr)
                continue
            print(table)
            print()
    _print_engine_summary(runner)
    return 1 if failures else 0


def _sweep_table(specs: Sequence[RunSpec], report) -> str:
    from repro.analysis.tables import format_percentage, render_table

    headers = [
        "Workload", "Config", "Organization", "Ways", "Provisioning", "Seed",
        "Avg attempts", "Invalidation rate", "Occupancy (vs 1x)",
    ]
    rows = []
    for spec in specs:
        try:
            result = report.result_for(spec)
        except Exception as exc:
            rows.append(
                [spec.workload, spec.tracked_level, spec.organization, spec.ways,
                 f"{spec.provisioning:g}x", spec.seed, "failed", str(exc)[:40], "-"]
            )
            continue
        rows.append(
            [
                spec.workload,
                spec.tracked_level,
                spec.organization,
                spec.ways,
                f"{spec.provisioning:g}x",
                spec.seed,
                f"{result.average_insertion_attempts:.2f}",
                format_percentage(result.forced_invalidation_rate, digits=3),
                format_percentage(result.occupancy_vs_worst_case, digits=1),
            ]
        )
    return render_table(headers, rows, title="Ad-hoc sweep")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.workloads.suite import WORKLOAD_NAMES

    workload_error = _unknown_workloads_message(args.workloads)
    if workload_error:
        print(workload_error, file=sys.stderr)
        return 2
    workloads = args.workloads if args.workloads is not None else list(WORKLOAD_NAMES)
    try:
        grid = RunGrid.product(
            workload=workloads,
            tracked_level=args.tracked_levels,
            organization=args.organizations,
            ways=args.ways,
            provisioning=args.provisionings,
            seed=args.seeds,
            scale=_scale(args),
            measure_accesses=_measure_accesses(args),
        )
    except (TypeError, ValueError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2
    return _run_grid(args, grid.specs)


def _print_engine_summary(runner: ParallelRunner, report=None) -> None:
    store = runner.store
    parts = []
    if report is not None:
        parts.append(report.summary())
    if store is not None:
        parts.append(
            f"store {store.path}: {len(store)} entries, "
            f"{store.hits} hits / {store.misses} misses this run"
        )
    if parts:
        print(f"engine: {'; '.join(parts)}", file=sys.stderr)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.config import CacheLevel
    from repro.experiments.common import scaled_system
    from repro.traces import TraceRecorder, accesses_for_run
    from repro.workloads.suite import get_workload

    workload_error = _unknown_workloads_message([args.workload])
    if workload_error:
        print(workload_error, file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    scale = _scale(args)
    system = scaled_system(
        CacheLevel(args.tracked_level), num_cores=args.num_cores, scale=scale
    )
    accesses = args.accesses
    if accesses is None:
        accesses = accesses_for_run(workload, system, _measure_accesses(args))
    out = args.out
    if out is None:
        out = (
            f"traces/{args.workload}-c{args.num_cores}-s{scale}-seed{args.seed}.npz"
        )
    header = TraceRecorder().record(
        workload, system, out, accesses, seed=args.seed, scale=scale
    )
    size = Path(out).stat().st_size
    print(f"recorded {out} ({size} bytes)")
    print(header.describe())
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.traces import TraceFile

    try:
        trace = TraceFile(args.path)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    size = trace.path.stat().st_size
    print(f"path:         {trace.path} ({size} bytes)")
    print(trace.header.describe())
    print(f"memory-mapped: {'yes' if trace.mapped else 'no (compressed members)'}")
    if args.verify:
        if trace.verify():
            print("fingerprint:  OK")
        else:
            print("fingerprint:  MISMATCH — file corrupt or tampered", file=sys.stderr)
            return 1
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.config import CacheLevel
    from repro.experiments.common import scaled_system
    from repro.traces import TraceFile, TraceReplayWorkload

    try:
        trace = TraceFile(args.path)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    header = trace.header
    # The recorded stream is scale-specific, so the replay system always
    # uses the recording's scale (scale-less API recordings get the default).
    scale = header.scale if header.scale is not None else DEFAULT_SCALE
    measure = args.measure_accesses
    if measure is None:
        system = scaled_system(
            CacheLevel(args.tracked_level), num_cores=header.num_cores, scale=scale
        )
        warmup = TraceReplayWorkload(trace).recommended_warmup(system)
        measure = header.num_accesses - warmup
        if measure <= 0:
            print(
                f"trace holds {header.num_accesses} accesses, all consumed by the "
                f"{warmup}-access warm-up; record a longer trace or pass "
                f"--measure-accesses",
                file=sys.stderr,
            )
            return 2
    spec = RunSpec(
        workload=header.workload,
        tracked_level=args.tracked_level,
        organization=args.organization,
        ways=args.ways,
        provisioning=args.provisioning,
        num_cores=header.num_cores,
        scale=scale,
        seed=header.seed,
        measure_accesses=measure,
        trace=str(trace.path),
        trace_fingerprint=header.fingerprint,
    )
    return _run_grid(args, [spec])


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _cmd_trace_record(args)
    if args.trace_command == "info":
        return _cmd_trace_info(args)
    if args.trace_command == "replay":
        return _cmd_trace_replay(args)
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.traces import parse_mix

    totals = {}
    fingerprints = {}
    for mix_spec in args.mixes:
        try:
            mix = parse_mix(mix_spec)
        except (ValueError, FileNotFoundError) as exc:
            print(f"invalid mix {mix_spec!r}: {exc}", file=sys.stderr)
            return 2
        totals[mix_spec] = mix.total_cores
        fingerprints[mix_spec] = mix.trace_fingerprint()
    try:
        grid = RunGrid(
            RunSpec(
                workload=mix_spec,
                mix=mix_spec,
                trace_fingerprint=fingerprints[mix_spec],
                num_cores=totals[mix_spec],
                tracked_level=level,
                organization=organization,
                ways=ways,
                provisioning=provisioning,
                seed=seed,
                scale=_scale(args),
                measure_accesses=_measure_accesses(args),
            )
            for mix_spec in args.mixes
            for level in args.tracked_levels
            for organization in args.organizations
            for ways in args.ways
            for provisioning in args.provisionings
            for seed in args.seeds
        )
    except (TypeError, ValueError) as exc:
        print(f"invalid mix sweep: {exc}", file=sys.stderr)
        return 2
    return _run_grid(args, grid.specs)


def _deliver(text: str, out: Optional[str]) -> None:
    """Print a report, or write it to ``--out`` (noting where it went)."""
    if out is None:
        print(text)
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + ("\n" if not text.endswith("\n") else ""))
    print(f"wrote {path}", file=sys.stderr)


def _format_flat_cell(value: object) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _report_store_path(args: argparse.Namespace) -> str:
    return args.store if args.store else str(default_store_path())


def _cmd_report_all(args: argparse.Namespace) -> int:
    """``repro-run report --all``: the whole store, flat or aggregated."""
    from repro.analysis.frame import Column, SweepFrame
    from repro.engine.store import iter_store_records, store_exists

    store_path = _report_store_path(args)
    if not store_exists(store_path):
        print(f"no result store at {store_path}", file=sys.stderr)
        return 2
    if args.group_by:
        frame = SweepFrame.aggregate(
            (payload for _key, payload in iter_store_records(store_path)),
            group_by=args.group_by,
            metrics={
                "points": ("workload", "count"),
                "hit_rate": ("cache_hit_rate", "mean"),
                "occupancy": ("occupancy_vs_worst_case", "mean"),
                "avg_attempts": ("average_insertion_attempts", "mean"),
                "geomean_attempts": ("average_insertion_attempts", "geomean"),
                "invalidation_rate": ("forced_invalidation_rate", "mean"),
                # Simulation cost per group (results recorded before the
                # per-spec wall-time existed simply don't contribute).
                "cost_seconds": ("elapsed_seconds", "sum"),
                "secs_per_point": ("elapsed_seconds", "mean"),
            },
        )
        title = f"Store aggregate by {', '.join(args.group_by)} ({store_path})"
    else:
        frame = SweepFrame.from_records(
            (payload for _key, payload in iter_store_records(store_path)),
            fields=(
                "workload", "tracked_level", "organization", "ways",
                "provisioning", "seed", "scale", "measure_accesses",
                "cache_hit_rate", "occupancy_vs_worst_case",
                "average_insertion_attempts", "forced_invalidation_rate",
                "elapsed_seconds", "worker",
            ),
        )
        title = f"Store contents ({store_path})"
    if args.fmt == "csv":
        _deliver(frame.to_csv(), args.out)
    elif args.fmt == "json":
        _deliver(frame.to_json(), args.out)
    else:
        columns = [
            Column(field, field, _format_flat_cell) for field in frame.fields()
        ]
        _deliver(frame.render(columns, title=title), args.out)
    if args.reference:
        print(
            "--reference applies to figure experiments, not --all; ignored",
            file=sys.stderr,
        )
    return 0


def _cmd_report_timeline(args: argparse.Namespace, name: str) -> int:
    """``repro-run report <experiment> --timeline``: stored counter timelines.

    Never simulates: timelines come from the ``.timelines/`` sidecars the
    result store wrote when the experiment ran with ``--timeline-interval``.
    One stored point renders as its full sparkline table; several render as
    the mean/p95 envelope over normalized run progress.
    """
    from repro.analysis.timeline_report import (
        render_timelines,
        timelines_to_csv,
        timelines_to_json,
    )
    from repro.engine.registry import EXPERIMENTS
    from repro.obs.timeline import unknown_channels_message

    channel_error = unknown_channels_message(args.channel)
    if channel_error:
        print(channel_error, file=sys.stderr)
        return 2
    experiment = EXPERIMENTS[name]
    if experiment.grid is None:
        print(
            f"{name} is analytical — it has no simulation points, so no "
            f"timelines",
            file=sys.stderr,
        )
        return 2
    grid = experiment.grid(**_grid_kwargs(experiment, args))
    store = ResultStore(_report_store_path(args))
    labeled = []
    for spec in grid:
        timeline = store.get_timeline(spec.key())
        if timeline is not None:
            labeled.append((spec.label(), timeline))
    if not labeled:
        print(
            f"no stored timelines for {name} in {store.path}; simulate them "
            f"first with 'repro-run run {name} --timeline-interval N'",
            file=sys.stderr,
        )
        return 1
    missing = len(grid) - len(labeled)
    if missing:
        print(
            f"note: {missing} of {len(grid)} points have no stored timeline",
            file=sys.stderr,
        )
    if args.fmt == "csv":
        _deliver(timelines_to_csv(labeled, channels=args.channel), args.out)
    elif args.fmt == "json":
        _deliver(timelines_to_json(labeled, channels=args.channel), args.out)
    else:
        _deliver(
            render_timelines(
                labeled,
                channels=args.channel,
                title=f"{experiment.title} — counter timelines",
            ),
            args.out,
        )
    if args.reference:
        print(
            "--reference applies to figure tables, not --timeline; ignored",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.report import (
        experiment_series,
        reference_scores,
        reference_summary,
        series_frame,
    )
    from repro.engine.registry import EXPERIMENTS, run_experiment
    from repro.engine.runner import EngineError, StoreOnlyRunner

    if args.all and args.experiment:
        print("give an experiment name or --all, not both", file=sys.stderr)
        return 2
    if args.channel and not args.timeline:
        print("--channel only applies with --timeline", file=sys.stderr)
        return 2
    if args.all:
        if args.timeline:
            print(
                "--timeline reports one experiment's stored timelines; "
                "name the experiment instead of --all",
                file=sys.stderr,
            )
            return 2
        return _cmd_report_all(args)
    if not args.experiment:
        print(
            "nothing to report: name an experiment (see 'repro-run list') "
            "or pass --all",
            file=sys.stderr,
        )
        return 2
    name = args.experiment
    if name not in EXPERIMENTS:
        print(
            f"unknown experiment {name!r} "
            f"(expected: {', '.join(EXPERIMENTS)})",
            file=sys.stderr,
        )
        return 2
    workload_error = _unknown_workloads_message(args.workloads)
    if workload_error:
        print(workload_error, file=sys.stderr)
        return 2
    if args.timeline:
        return _cmd_report_timeline(args, name)

    experiment = EXPERIMENTS[name]
    runner = None
    if experiment.simulated:
        # Reports never simulate: points must already be in the store.
        runner = StoreOnlyRunner(ResultStore(_report_store_path(args)))
    try:
        result, table = run_experiment(
            name,
            runner=runner,
            workloads=args.workloads,
            scale=args.scale,
            measure_accesses=args.measure_accesses,
            seed=args.seed,
        )
    except EngineError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 1

    if args.fmt == "csv":
        if args.reference:
            print(
                "--reference is not representable in the flat CSV; use "
                "--format ascii or json for the error metrics (ignored)",
                file=sys.stderr,
            )
        frame = series_frame(experiment_series(name, result))
        _deliver(frame.to_csv(fields=("series", "point", "value")), args.out)
    elif args.fmt == "json":
        payload = {
            "experiment": name,
            "title": experiment.title,
            "series": experiment_series(name, result),
        }
        if args.reference:
            scores = reference_scores(name, result)
            if scores is not None:
                payload["reference"] = {
                    label: vars(score).copy() for label, score in scores.items()
                }
        _deliver(json_module.dumps(payload, indent=2), args.out)
    else:
        sections = [table]
        if args.reference:
            summary = reference_summary(name, result)
            if summary is None:
                print(f"no digitized paper reference for {name}", file=sys.stderr)
            else:
                sections.append(summary)
        _deliver("\n\n".join(sections), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import compare_files

    try:
        report = compare_files(
            args.baseline,
            args.candidate,
            threshold=args.threshold,
            metrics=args.metrics,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.fmt == "json":
        _deliver(report.to_json(), args.out)
    else:
        _deliver(report.render(show_all=args.show_all), args.out)
    if args.fail_on_regression and not report.ok:
        print(
            f"FAIL: {len(report.regressions)} metric(s) regressed beyond "
            f"{report.threshold:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ResultStore(args.store) if args.store else ResultStore()
    action = args.action
    if action == "clear":
        entries = len(store)
        store.clear()
        print(f"cleared {entries} cached results from {store.path}")
        return 0
    if action == "compact":
        report = store.compact()
        print(f"compacted {store.path}: {report}")
        return 0
    if action == "export":
        if not args.file:
            print("cache export needs a destination FILE", file=sys.stderr)
            return 2
        count = store.export_jsonl(args.file)
        print(f"exported {count} records from {store.path} to {args.file}")
        return 0
    if action == "import":
        if not args.file:
            print("cache import needs a source FILE", file=sys.stderr)
            return 2
        if not Path(args.file).exists():
            print(f"no such file: {args.file}", file=sys.stderr)
            return 2
        imported, dropped = store.import_jsonl(args.file)
        line = f"imported {imported} records from {args.file} into {store.path}"
        if dropped:
            line += f" ({dropped} malformed records dropped)"
        print(line)
        return 0
    if action == "stats":
        stats = store.stats()
        width = max(len(name) for name in stats)
        for name, value in stats.items():
            print(f"{name:<{width}}  {value}")
        return 0
    print(f"store:   {store.path}")
    print(f"entries: {len(store)}")
    print(f"size:    {store.stats()['wal_bytes']} bytes")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SealedStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "mix":
        return _cmd_mix(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
