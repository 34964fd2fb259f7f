"""Sweep progress: monitor accounting, heartbeats across fork and spawn,
throttled rendering."""

import io
import multiprocessing
import time

import pytest

from repro import obs
from repro.engine.runner import ParallelRunner
from repro.engine.spec import RunGrid
from repro.obs.progress import (
    ProgressRenderer,
    SweepMonitor,
    format_eta,
    format_progress_line,
    make_event,
)


class TestMakeEvent:
    def test_event_shape(self):
        before = time.time()
        kind, pid, timestamp, label = make_event("start", 1234, "Oracle")
        assert (kind, pid, label) == ("start", 1234, "Oracle")
        assert before <= timestamp <= time.time()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_event("explode", 1)


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

    def test_worker_events_build_health_rows(self):
        monitor = SweepMonitor()
        monitor.begin(2)
        monitor.record_worker_event(make_event("online", 10))
        monitor.record_worker_event(make_event("start", 10, "Oracle"))
        monitor.record_worker_event(make_event("heartbeat", 10, "Oracle"))
        monitor.record_worker_event(make_event("done", 10, "Oracle"))
        assert monitor.worker_count() == 1
        (row,) = monitor.workers()
        assert row["pid"] == 10
        assert row["beats"] == 4
        assert row["points_done"] == 1
        assert row["current"] == ""  # cleared by "done"

    def test_start_sets_current_label(self):
        monitor = SweepMonitor()
        monitor.record_worker_event(make_event("start", 7, "ocean"))
        assert monitor.workers()[0]["current"] == "ocean"

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
    """End-to-end: events and telemetry cross the pool boundary under both
    start methods (spawn re-imports everything; fork inherits)."""

    def _grid(self):
        return RunGrid.product(
            workload="Oracle",
            tracked_level=["L1", "L2"],
            scale=64,
            measure_accesses=1_000,
            seed=[0, 1],
        )

    def test_heartbeats_and_worker_events_arrive(self, start_method):
        monitor = SweepMonitor()
        runner = ParallelRunner(
            workers=2,
            monitor=monitor,
            start_method=start_method,
            heartbeat_interval=0.05,
        )
        report = runner.run(self._grid())
        assert report.ok and report.simulated == 4
        assert 1 <= monitor.worker_count() <= 2
        for row in monitor.workers():
            assert row["beats"] >= 1  # the "online" event is the first beat
        assert monitor.done == 4
        assert monitor.finished_at is not None

    def test_worker_telemetry_absorbed_into_parent(self, start_method):
        obs.enable()
        runner = ParallelRunner(
            workers=2,
            monitor=SweepMonitor(),
            start_method=start_method,
            heartbeat_interval=0.05,
        )
        report = runner.run(self._grid())
        assert report.ok
        measured = obs.REGISTRY.counter("sim.run.measured_accesses").value
        assert measured == 4 * 1_000
        phases = obs.TRACER.totals()
        # Each chunk traces its path under "drain_vector" (the fast path)
        # or "drain_scalar" (the handler loop).
        batch_spans = sum(
            phases[name]["count"]
            for name in ("drain_vector", "drain_scalar")
            if name in phases
        )
        assert batch_spans >= 4
        assert len(report.worker_pids) >= 1

    def test_no_monitor_means_no_queue_but_results_still_flow(self, start_method):
        runner = ParallelRunner(workers=2, start_method=start_method)
        report = runner.run(self._grid())
        assert report.ok and report.simulated == 4
