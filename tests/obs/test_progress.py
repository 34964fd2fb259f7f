"""Sweep progress: monitor accounting, the worker rows the pool runner
feeds under fork and spawn, throttled rendering."""

import io
import multiprocessing
import threading
import time

import pytest

from repro import obs
from repro.engine.runner import ParallelRunner, _execute_payload_observed
from repro.engine.spec import RunGrid
from repro.engine.store import ResultStore
from repro.obs.progress import (
    ProgressRenderer,
    SweepMonitor,
    format_eta,
    format_progress_line,
)


class TestSweepMonitor:
    def test_point_accounting(self):
        monitor = SweepMonitor()
        monitor.begin(4)
        monitor.point_finished("cached")
        monitor.point_finished("simulated")
        monitor.point_finished("simulated")
        monitor.point_finished("failed")
        assert monitor.done == 4
        assert monitor.cached == 1
        assert monitor.simulated == 2
        assert monitor.failed == 1

    def test_runner_exchanges_build_health_rows(self):
        monitor = SweepMonitor()
        monitor.begin(2)
        monitor.worker_spawned(10)
        assert monitor.workers() == [
            {"pid": 10, "last_seen_age": pytest.approx(0.0, abs=1.0),
             "current": "", "points_done": 0}
        ]
        monitor.point_sent(10, "Oracle")
        assert monitor.workers()[0]["current"] == "Oracle"
        monitor.point_returned(10)
        assert monitor.worker_count() == 1
        (row,) = monitor.workers()
        assert row["pid"] == 10
        assert row["points_done"] == 1
        assert row["current"] == ""  # cleared by the returned outcome

    def test_death_clears_the_label_without_counting_the_point(self):
        monitor = SweepMonitor()
        monitor.worker_spawned(7)
        monitor.point_sent(7, "ocean")
        monitor.worker_died(7)
        (row,) = monitor.workers()
        assert row["current"] == "" and row["points_done"] == 0

    def test_last_seen_age_grows_until_the_next_exchange(self):
        monitor = SweepMonitor()
        monitor.worker_spawned(3)
        monitor.point_sent(3, "DB2")
        monitor._workers[3].last_seen -= 30.0  # a point stalled for 30 s
        assert monitor.workers()[0]["last_seen_age"] >= 30.0
        monitor.point_returned(3)
        assert monitor.workers()[0]["last_seen_age"] < 30.0

    def test_a_dead_worker_keeps_the_points_it_finished(self):
        monitor = SweepMonitor()
        monitor.worker_spawned(5)
        for label in ("Oracle", "DB2"):
            monitor.point_sent(5, label)
            monitor.point_returned(5)
        monitor.point_sent(5, "ocean")
        monitor.worker_died(5)
        (row,) = monitor.workers()
        assert row["points_done"] == 2 and row["current"] == ""

    def test_death_of_an_unknown_worker_adds_no_row(self):
        monitor = SweepMonitor()
        monitor.worker_died(99)
        assert monitor.workers() == [] and monitor.worker_count() == 0

    def test_begin_drops_the_previous_grids_rows(self):
        monitor = SweepMonitor()
        monitor.worker_spawned(1)
        monitor.point_sent(1, "Oracle")
        monitor.begin(3)
        assert monitor.workers() == []
        assert "workers" not in format_progress_line(monitor)

    def test_rows_are_ordered_by_pid(self):
        monitor = SweepMonitor()
        for pid in (30, 10, 20):
            monitor.worker_spawned(pid)
        assert [row["pid"] for row in monitor.workers()] == [10, 20, 30]

    def test_eta_none_until_rate_exists(self):
        monitor = SweepMonitor(total=10)
        assert monitor.eta_seconds is None

    def test_snapshot_is_json_shaped(self):
        monitor = SweepMonitor()
        monitor.begin(3)
        monitor.point_finished("simulated")
        snapshot = monitor.snapshot()
        assert snapshot["total"] == 3
        assert snapshot["done"] == 1
        assert isinstance(snapshot["workers"], list)


class TestFormatting:
    def test_format_eta(self):
        assert format_eta(None) == "--:--"
        assert format_eta(65) == "01:05"
        assert format_eta(3725) == "1:02:05"

    def test_progress_line_contents(self):
        monitor = SweepMonitor()
        monitor.begin(8)
        monitor.started_at = time.time() - 2.0
        for _ in range(4):
            monitor.point_finished("simulated")
        monitor.point_finished("cached")
        monitor.point_finished("failed")
        line = format_progress_line(monitor, width=10)
        assert "6/8" in line
        assert "75.0%" in line
        assert "1 cached" in line
        assert "1 FAILED" in line
        assert "eta " in line

    def test_progress_line_handles_zero_total(self):
        line = format_progress_line(SweepMonitor())
        assert "0/0" in line


class TestProgressRenderer:
    def _monitor(self):
        monitor = SweepMonitor()
        monitor.begin(2)
        monitor.point_finished("simulated")
        return monitor

    def test_tty_mode_rewrites_in_place(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream, force_tty=True)
        renderer.update(self._monitor())
        assert stream.getvalue().startswith("\r")
        assert "\n" not in stream.getvalue()

    def test_finish_releases_the_tty_line(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream, force_tty=True)
        renderer.finish(self._monitor())
        assert stream.getvalue().endswith("\n")

    def test_plain_mode_writes_normal_lines(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream, force_tty=False)
        renderer.update(self._monitor(), force=True)
        value = stream.getvalue()
        assert "\r" not in value
        assert value.endswith("\n")

    def test_updates_are_throttled(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream, tty_interval=60.0, force_tty=True)
        monitor = self._monitor()
        assert renderer.update(monitor) is True
        assert renderer.update(monitor) is False  # inside the throttle window
        assert renderer.update(monitor, force=True) is True
        assert renderer.renders == 2

    def test_stringio_defaults_to_plain_mode(self):
        renderer = ProgressRenderer(io.StringIO())
        assert renderer.is_tty is False


def _available_start_methods():
    methods = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in methods]


@pytest.mark.parametrize("start_method", _available_start_methods())
class TestPooledHeartbeats:
    """End-to-end: the runner feeds worker rows from its pipe exchanges, and
    telemetry crosses the pool boundary, under both start methods (spawn
    re-imports everything; fork inherits)."""

    def _grid(self):
        return RunGrid.product(
            workload="Oracle",
            tracked_level=["L1", "L2"],
            scale=64,
            measure_accesses=1_000,
            seed=[0, 1],
        )

    def test_runner_feeds_one_row_per_worker(self, start_method):
        monitor = SweepMonitor()
        runner = ParallelRunner(
            workers=2, monitor=monitor, start_method=start_method
        )
        report = runner.run(self._grid())
        assert report.ok and report.simulated == 4
        rows = monitor.workers()
        assert [row["pid"] for row in rows] == sorted(
            int(pid) for pid in report.worker_pids
        )
        assert sum(row["points_done"] for row in rows) == report.simulated
        assert all(row["current"] == "" for row in rows)
        assert monitor.done == 4
        assert monitor.finished_at is not None

    def test_worker_telemetry_absorbed_into_parent(self, start_method):
        obs.enable()
        runner = ParallelRunner(
            workers=2, monitor=SweepMonitor(), start_method=start_method
        )
        report = runner.run(self._grid())
        assert report.ok
        measured = obs.REGISTRY.counter("sim.run.measured_accesses").value
        assert measured == 4 * 1_000
        phases = obs.TRACER.totals()
        # Each chunk traces its drain under "drain_vector".
        assert phases["drain_vector"]["count"] >= 4
        assert len(report.worker_pids) >= 1

    def test_no_monitor_means_no_queue_but_results_still_flow(self, start_method):
        runner = ParallelRunner(workers=2, start_method=start_method)
        report = runner.run(self._grid())
        assert report.ok and report.simulated == 4

    def test_cached_points_reach_no_worker_row(self, start_method, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        grid = list(self._grid())
        ParallelRunner(workers=1, store=store).run(grid[:2])
        monitor = SweepMonitor()
        report = ParallelRunner(
            workers=2, store=store, monitor=monitor, start_method=start_method
        ).run(grid)
        assert report.ok and (report.cached, report.simulated) == (2, 2)
        assert (monitor.cached, monitor.simulated) == (2, 2)
        rows = monitor.workers()
        assert 1 <= len(rows) <= 2
        assert sum(row["points_done"] for row in rows) == 2

    def test_pool_runs_without_helper_threads(self, start_method):
        # The monitor is fed from the pipe exchanges alone: no thread in a
        # worker, none started in the parent while the pool runs.
        before = {thread.ident for thread in threading.enumerate()}
        started = set()
        ticks = []

        def tick():
            ticks.append(1)
            started.update(
                thread.ident for thread in threading.enumerate()
                if thread.ident not in before
            )

        runner = _SingleThreadedRunner(
            workers=2, monitor=SweepMonitor(), start_method=start_method,
            tick=tick,
        )
        report = runner.run(self._grid())
        assert report.ok, [str(f) for f in report.failures.values()]
        assert report.simulated == 4
        assert ticks and not started


def _single_threaded_entry(payload):
    """Pool entry that fails its point if the worker runs a second thread."""
    threads = threading.active_count()
    if threads != 1:
        return {"status": "error", "spec": payload,
                "error": f"worker runs {threads} threads"}
    return _execute_payload_observed(payload)


class _SingleThreadedRunner(ParallelRunner):
    _worker_entry = staticmethod(_single_threaded_entry)
