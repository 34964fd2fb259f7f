"""Sharded execution of run grids across a worker pool.

:class:`ParallelRunner` takes a :class:`~repro.engine.spec.RunGrid`,
answers what it can from the :class:`~repro.engine.store.ResultStore`
(content-addressed, so only bit-identical points hit), shards the
remaining specs across a :mod:`multiprocessing` pool, and folds every
outcome into a :class:`GridReport`.  Each worker rebuilds its system from
the spec (:func:`repro.engine.execute.execute_spec`), so parallel results
are identical to serial ones; a failing point is isolated as a
:class:`~repro.engine.results.RunFailure` without aborting the grid.

Telemetry crosses the process boundary in two streams, both optional:

* **Live progress** — workers push small ``(kind, pid, ts, label)``
  events (``online``/``start``/``heartbeat``/``done``) onto a
  ``multiprocessing.Queue`` installed by the pool initializer; the parent
  drains it between completions into a
  :class:`~repro.obs.progress.SweepMonitor` (per-worker last-seen,
  points/s, ETA) and calls the ``tick`` callback so the CLI's renderer
  can repaint.  Validated under both ``fork`` and ``spawn``.
* **Metrics and spans** — when telemetry is enabled
  (:func:`repro.obs.enable`), each worker outcome carries the worker's
  cumulative registry/tracer snapshot; the parent keeps the latest
  snapshot per pid (workers live for the whole pool, so cumulative ==
  final) and folds them into its own global registry/tracer after the
  pool drains.  Only summaries cross the boundary — never per-access
  data.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field, replace
from queue import Empty
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro import obs
from repro.engine.execute import execute_payload, execute_spec
from repro.engine.results import RunFailure, RunResult
from repro.engine.spec import RunGrid, RunSpec
from repro.engine.store import ResultStore
from repro.obs.logging import apply_logging_state, logging_state
from repro.obs.metrics import REGISTRY
from repro.obs.progress import SweepMonitor, make_event
from repro.obs.timeline import Timeline
from repro.obs.tracing import TRACER

__all__ = [
    "EngineError",
    "GridReport",
    "ParallelRunner",
    "StoreOnlyRunner",
    "default_workers",
    "serial_runner",
]

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"

#: Progress event callback: ``(event, done, total, spec)`` where ``event``
#: is one of ``"cached"``, ``"simulated"``, ``"failed"``.
ProgressCallback = Callable[[str, int, int, RunSpec], None]

#: Default seconds between worker heartbeats while a point simulates.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

# -- worker-side plumbing (module level so fork AND spawn can pickle it) ----

#: The event queue this worker reports to (installed by ``_worker_init``).
_worker_queue = None
#: Label of the point this worker is currently simulating, read by the
#: heartbeat thread.  A mutable cell, not a rebound global, so the thread
#: sees updates without locking (single writer, torn reads impossible for
#: a str slot).
_worker_label = {"current": ""}
#: Store path this worker persists results to (installed by ``_worker_init``);
#: ``None`` keeps persistence in the parent.
_worker_store_path = None
#: This worker's lazily opened write-only store handle.
_worker_store = None


def _persist_in_worker(result: RunResult) -> bool:
    """Append ``result`` to this worker's own WAL of the shared store.

    Each worker appends to its own ``<store>.segments/wal-w<pid>.jsonl``,
    so the parent only has to *note* the result — no record crosses the
    process boundary twice.  Returns ``False`` (parent persists instead) if this
    worker has no store or the append failed; persistence problems must
    never cost a finished simulation.
    """
    global _worker_store
    if _worker_store_path is None:
        return False
    try:
        if _worker_store is None:
            _worker_store = ResultStore(
                _worker_store_path, writer=f"w{os.getpid()}", preload=False
            )
        _worker_store.put(result)
        return True
    except Exception:
        return False


def _put_event(queue, kind: str, label: str = "") -> None:
    """Best-effort event send: telemetry must never kill a simulation."""
    try:
        queue.put_nowait(make_event(kind, os.getpid(), label))
    except Exception:
        pass


def _heartbeat_loop(queue, interval: float) -> None:
    while True:
        time.sleep(interval)
        _put_event(queue, "heartbeat", _worker_label["current"])


def _worker_init(
    queue, obs_state, log_state, heartbeat_interval: float, store_path=None
) -> None:
    """Pool initializer: replicate parent telemetry state, start heartbeats."""
    global _worker_queue, _worker_store_path, _worker_store
    _worker_queue = queue
    _worker_store_path = store_path
    _worker_store = None
    obs.apply_state(obs_state)
    if log_state is not None:
        apply_logging_state(log_state)
    if queue is not None:
        # The immediate "online" event doubles as the first beat, so worker
        # liveness is observable before the first point completes.
        _put_event(queue, "online")
        if heartbeat_interval > 0:
            thread = threading.Thread(
                target=_heartbeat_loop,
                args=(queue, heartbeat_interval),
                daemon=True,
            )
            thread.start()


def _execute_payload_observed(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry: :func:`execute_payload` plus progress + telemetry.

    Kept separate from ``execute_payload`` so the execution path stays
    pure (and serial runs don't double-report telemetry they already
    accumulated in-process).
    """
    queue = _worker_queue
    label = str(payload.get("workload", ""))
    if queue is not None:
        _worker_label["current"] = label
        _put_event(queue, "start", label)
    outcome = execute_payload(payload)
    if outcome.get("status") == "ok" and _worker_store_path is not None:
        result = RunResult.from_dict(outcome["result"])
        timeline_payload = outcome.get("timeline")
        if timeline_payload is not None:
            result = result.with_timeline(Timeline.from_payload(timeline_payload))
        if _persist_in_worker(result):
            # The parent notes the result instead of re-writing it.
            outcome["persisted"] = True
    if queue is not None:
        _worker_label["current"] = ""
        _put_event(queue, "done", label)
    if REGISTRY.enabled or TRACER.enabled:
        # Cumulative snapshot: the parent keeps the latest per pid.
        outcome["telemetry"] = {
            "pid": os.getpid(),
            "metrics": REGISTRY.snapshot(),
            "phases": TRACER.snapshot(),
        }
    return outcome


class EngineError(RuntimeError):
    """Raised when a requested simulation point failed to execute."""


def default_workers() -> int:
    """Worker count: ``$REPRO_ENGINE_WORKERS`` or the machine's CPU count."""
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


@dataclass
class GridReport:
    """Outcome of one grid execution, addressable by spec."""

    results: Dict[str, RunResult] = field(default_factory=dict)
    failures: Dict[str, RunFailure] = field(default_factory=dict)
    simulated: int = 0
    cached: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results) + len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worker_pids(self) -> List[str]:
        """Distinct pids that simulated points of this grid (cached and
        legacy results carry no worker and are excluded)."""
        return sorted({r.worker for r in self.results.values() if r.worker})

    def result_for(self, spec: RunSpec) -> RunResult:
        """The result of ``spec``; raises :class:`EngineError` if it failed."""
        key = spec.key()
        result = self.results.get(key)
        if result is not None:
            return result
        failure = self.failures.get(key)
        if failure is not None:
            detail = f"\n{failure.traceback}" if failure.traceback else ""
            raise EngineError(f"simulation point failed — {failure}{detail}")
        raise KeyError(f"spec not part of this report: {spec.label()}")

    def summary(self) -> str:
        parts = [
            f"{self.simulated} simulated",
            f"{self.cached} cached",
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        return f"{', '.join(parts)} in {self.elapsed_seconds:.2f}s"


class ParallelRunner:
    """Executes run grids, reusing cached results and sharding the rest.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means :func:`default_workers`.  ``1`` executes
        in-process (no pool), which is also used automatically for
        single-point remainders.
    store:
        A :class:`ResultStore` for incremental re-runs, or ``None`` to
        always simulate.
    progress:
        Optional callback invoked once per completed point.
    start_method:
        :mod:`multiprocessing` start method; defaults to ``fork`` where
        available (cheap on Linux) and ``spawn`` elsewhere.
    monitor:
        Optional :class:`~repro.obs.progress.SweepMonitor` fed with point
        completions and (on pooled runs) worker events.
    tick:
        Optional zero-argument callback invoked whenever the live state
        may have changed (point done, events drained) — the CLI hangs its
        throttled progress renderer here.
    heartbeat_interval:
        Seconds between worker heartbeats; ``0`` disables the heartbeat
        thread (the online/start/done events still flow).
    timeline_interval:
        When set, every grid this runner executes collects an
        interval-sampled counter timeline (:mod:`repro.obs.timeline`) at
        that cadence: incoming specs are rewritten with the interval
        before lookup/execution.  The field is excluded from the spec
        key, so the rewrite never changes where results are cached.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        start_method: Optional[str] = None,
        monitor: Optional[SweepMonitor] = None,
        tick: Optional[Callable[[], None]] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        timeline_interval: Optional[int] = None,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        if timeline_interval is not None and timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive")
        self._timeline_interval = timeline_interval
        self._workers = workers
        self._store = store
        self._progress = progress
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._start_method = start_method
        self._monitor = monitor
        self._tick = tick
        self._heartbeat_interval = heartbeat_interval

    @property
    def workers(self) -> int:
        return self._workers if self._workers is not None else default_workers()

    @property
    def store(self) -> Optional[ResultStore]:
        return self._store

    @property
    def monitor(self) -> Optional[SweepMonitor]:
        return self._monitor

    # -- execution -----------------------------------------------------------
    def run_spec(self, spec: RunSpec) -> RunResult:
        """Execute (or fetch) a single point."""
        report = self.run([spec])
        return report.result_for(spec)

    def run(self, grid: Union[RunGrid, Iterable[RunSpec]]) -> GridReport:
        """Execute every point of ``grid``, returning a :class:`GridReport`."""
        if not isinstance(grid, RunGrid):
            grid = RunGrid(grid)
        if self._timeline_interval is not None:
            # Key-neutral rewrite: timeline_interval is compare-excluded, so
            # the drivers' report lookups by their original specs still hit.
            grid = RunGrid(
                replace(spec, timeline_interval=self._timeline_interval)
                for spec in grid
            )
        started = time.perf_counter()
        report = GridReport()
        total = len(grid)
        pending: List[RunSpec] = []
        if self._monitor is not None:
            self._monitor.begin(total)

        for spec in grid:
            cached = self._store.get(spec) if self._store is not None else None
            if cached is not None:
                report.results[spec.key()] = cached
                report.cached += 1
                self._emit("cached", report, total, spec)
            else:
                pending.append(spec)

        if pending:
            if self.workers <= 1 or len(pending) == 1:
                self._run_serial(pending, report, total)
            else:
                self._run_pool(pending, report, total)

        report.elapsed_seconds = time.perf_counter() - started
        if self._monitor is not None:
            self._monitor.finish()
        return report

    def _emit(self, event: str, report: GridReport, total: int, spec: RunSpec) -> None:
        if self._monitor is not None:
            self._monitor.point_finished(event)
        if self._progress is not None:
            self._progress(event, report.total, total, spec)
        if self._tick is not None:
            self._tick()

    def _record_outcome(
        self, outcome: Dict[str, object], report: GridReport, total: int
    ) -> None:
        if outcome["status"] == "ok":
            result = RunResult.from_dict(outcome["result"])
            payload = outcome.get("timeline")
            if payload is not None:
                # to_dict() never carries the timeline; reattach it from the
                # worker's columnar payload before the store persists it.
                result = result.with_timeline(Timeline.from_payload(payload))
            report.results[result.spec.key()] = result
            report.simulated += 1
            if self._store is not None:
                if outcome.get("persisted"):
                    # A pool worker already appended this record to its own
                    # WAL (and sidecar); only the catalog note comes home —
                    # never the bytes twice.
                    self._store.note_external(result)
                else:
                    self._store.put(result)
            self._emit("simulated", report, total, result.spec)
        else:
            spec = RunSpec.from_dict(outcome["spec"])
            failure = RunFailure(
                spec=spec,
                error=str(outcome.get("error", "unknown error")),
                traceback=str(outcome.get("traceback", "")),
            )
            report.failures[spec.key()] = failure
            self._emit("failed", report, total, spec)

    def _run_serial(self, pending: List[RunSpec], report: GridReport, total: int) -> None:
        for spec in pending:
            self._record_outcome(execute_payload(spec.to_dict()), report, total)

    def _run_pool(self, pending: List[RunSpec], report: GridReport, total: int) -> None:
        context = multiprocessing.get_context(self._start_method)
        pool_size = min(self.workers, len(pending))
        payloads = [spec.to_dict() for spec in pending]
        # The event queue only exists when someone is watching; without a
        # monitor the pool still replicates obs/logging state but skips the
        # heartbeat machinery entirely.
        queue = context.Queue() if self._monitor is not None else None
        telemetry: Dict[int, Dict[str, object]] = {}
        store_path = str(self._store.path) if self._store is not None else None
        initargs = (
            queue,
            obs.state(),
            logging_state(),
            self._heartbeat_interval,
            store_path,
        )
        with context.Pool(
            processes=pool_size, initializer=_worker_init, initargs=initargs
        ) as pool:
            in_flight = [
                pool.apply_async(_execute_payload_observed, (payload,))
                for payload in payloads
            ]
            # apply_async + a poll loop (rather than imap_unordered) so the
            # parent can drain worker events and repaint progress *between*
            # completions — a stalled worker stays visible.
            while in_flight:
                self._drain_events(queue, timeout=0.05)
                still_running = []
                for handle in in_flight:
                    if handle.ready():
                        outcome = handle.get()
                        self._take_telemetry(outcome, telemetry)
                        self._record_outcome(outcome, report, total)
                    else:
                        still_running.append(handle)
                in_flight = still_running
                if self._tick is not None:
                    self._tick()
            # Final drain: queue feeder threads deliver asynchronously, so
            # a non-blocking sweep here would drop trailing events.
            self._drain_events(queue, timeout=0.2)
        for snapshot in telemetry.values():
            REGISTRY.absorb(snapshot.get("metrics", {}))
            TRACER.absorb(snapshot.get("phases", {}))

    def _drain_events(self, queue, timeout: float) -> None:
        """Feed queued worker events to the monitor, waiting ≤ ``timeout``."""
        if queue is None:
            time.sleep(timeout)
            return
        monitor = self._monitor
        deadline = time.monotonic() + timeout
        while True:
            wait = deadline - time.monotonic()
            if wait <= 0:
                return
            try:
                event = queue.get(timeout=wait)
            except (Empty, OSError, EOFError):
                return
            monitor.record_worker_event(event)

    @staticmethod
    def _take_telemetry(
        outcome: Dict[str, object], telemetry: Dict[int, Dict[str, object]]
    ) -> None:
        """Keep the latest cumulative snapshot per worker pid."""
        snapshot = outcome.pop("telemetry", None)
        if snapshot:
            telemetry[int(snapshot.get("pid", 0))] = snapshot


class StoreOnlyRunner(ParallelRunner):
    """A runner that answers exclusively from the result store.

    Grid points already cached resolve normally; anything else becomes a
    :class:`RunFailure` instead of a simulation.  This is what lets
    ``repro-run report`` re-render any experiment from cached results with
    a hard guarantee that nothing is re-simulated.
    """

    def __init__(self, store: ResultStore,
                 progress: Optional[ProgressCallback] = None) -> None:
        super().__init__(workers=1, store=store, progress=progress)

    def _run_serial(
        self, pending: List[RunSpec], report: GridReport, total: int
    ) -> None:
        for spec in pending:
            report.failures[spec.key()] = RunFailure(
                spec=spec,
                error=(
                    "not in the result store; simulate it first with "
                    "'repro-run run' or 'repro-run sweep'"
                ),
            )
            self._emit("failed", report, total, spec)

    def _run_pool(
        self, pending: List[RunSpec], report: GridReport, total: int
    ) -> None:  # pragma: no cover - workers pinned to 1 in __init__
        self._run_serial(pending, report, total)


def serial_runner() -> ParallelRunner:
    """The default runner of the experiment drivers: in-process, no cache."""
    return ParallelRunner(workers=1, store=None)
