"""Parallel-runner tests: serial equivalence, caching, failure isolation."""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.engine import runner as runner_module
from repro.engine.runner import EngineError, ParallelRunner
from repro.engine.spec import RunGrid, RunSpec
from repro.engine.store import ResultStore
from repro.obs.progress import SweepMonitor


def _grid(**overrides):
    axes = dict(
        workload=["Oracle", "ocean"],
        tracked_level=["L1", "L2"],
        provisioning=2.0,
        scale=64,
        measure_accesses=1_500,
    )
    axes.update(overrides)
    return RunGrid.product(**axes)


class TestParallelMatchesSerial:
    def test_parallel_results_identical_to_serial(self):
        grid = _grid()
        serial = ParallelRunner(workers=1).run(grid)
        parallel = ParallelRunner(workers=2).run(grid)
        assert serial.ok and parallel.ok
        assert set(serial.results) == set(parallel.results)
        for key, result in serial.results.items():
            # RunResult equality covers every statistic except wall-clock.
            assert parallel.results[key] == result

    def test_report_is_addressable_by_spec(self):
        grid = _grid()
        report = ParallelRunner(workers=2).run(grid)
        for spec in grid:
            result = report.result_for(spec)
            assert result.spec == spec
            assert result.accesses == spec.measure_accesses

    def test_unknown_spec_raises_key_error(self):
        report = ParallelRunner(workers=1).run(_grid())
        with pytest.raises(KeyError):
            report.result_for(RunSpec(workload="DB2", scale=64, measure_accesses=1_500))


class TestCaching:
    def test_second_run_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        grid = _grid()

        cold = ParallelRunner(workers=1, store=store).run(grid)
        assert cold.simulated == len(grid) and cold.cached == 0

        warm = ParallelRunner(workers=1, store=store).run(grid)
        assert warm.simulated == 0 and warm.cached == len(grid)
        assert warm.results == cold.results

    def test_changed_field_invalidates_only_that_point(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        runner = ParallelRunner(workers=1, store=store)
        runner.run(_grid())

        changed = _grid(seed=[0, 1])  # doubles the grid; seed=0 half is cached
        report = runner.run(changed)
        assert report.cached == len(changed) // 2
        assert report.simulated == len(changed) // 2

    def test_cached_results_shared_across_runners(self, tmp_path):
        path = tmp_path / "results.jsonl"
        grid = _grid()
        ParallelRunner(workers=1, store=ResultStore(path)).run(grid)
        report = ParallelRunner(workers=2, store=ResultStore(path)).run(grid)
        assert report.simulated == 0 and report.cached == len(grid)


class TestFailureIsolation:
    def test_bad_point_does_not_abort_the_grid(self):
        good = _grid()
        bad = RunSpec(workload="no-such-workload", scale=64, measure_accesses=1_500)
        report = ParallelRunner(workers=2).run(RunGrid([bad]) + good)

        assert len(report.failures) == 1
        assert len(report.results) == len(good)
        failure = report.failures[bad.key()]
        assert "no-such-workload" in failure.error
        assert failure.traceback

    def test_result_for_failed_spec_raises_engine_error(self):
        bad = RunSpec(workload="no-such-workload", scale=64, measure_accesses=1_500)
        report = ParallelRunner(workers=1).run([bad])
        assert not report.ok
        with pytest.raises(EngineError, match="no-such-workload"):
            report.result_for(bad)

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        bad = RunSpec(workload="no-such-workload", scale=64, measure_accesses=1_500)
        ParallelRunner(workers=1, store=store).run([bad])
        assert len(store) == 0


class TestProgressReporting:
    def test_every_point_emits_one_event(self, tmp_path):
        events = []
        store = ResultStore(tmp_path / "results.jsonl")

        def progress(event, done, total, spec):
            events.append((event, done, total, spec.workload))

        grid = _grid()
        ParallelRunner(workers=1, store=store, progress=progress).run(grid)
        assert len(events) == len(grid)
        assert all(event == "simulated" for event, *_ in events)
        assert events[-1][1] == events[-1][2] == len(grid)

        events.clear()
        bad = RunSpec(workload="no-such-workload", scale=64, measure_accesses=1_500)
        ParallelRunner(workers=1, store=store, progress=progress).run(
            RunGrid([bad]) + grid
        )
        kinds = {event for event, *_ in events}
        assert kinds == {"cached", "failed"}

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)


# -- dying workers ---------------------------------------------------------------

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

#: A dying worker once hung ``run()`` forever; a finished grid takes seconds.
RUN_BOUND_SECONDS = 120


def _exit_on_qry2(payload):
    """Pool worker entry that dies outright on the Qry2 point."""
    if payload["workload"] == "Qry2":
        os._exit(137)
    return runner_module._execute_payload_observed(payload)


class _ExitingRunner(ParallelRunner):
    _worker_entry = staticmethod(_exit_on_qry2)


class _KillingMonitor(SweepMonitor):
    """SIGKILLs the worker as soon as it reports starting ``victim``."""

    def __init__(self, victim):
        super().__init__()
        self.victim = victim
        self.killed = None

    def record_worker_event(self, event):
        super().record_worker_event(event)
        kind, pid, _ts, label = event
        if kind == "start" and label == self.victim and self.killed is None:
            os.kill(pid, signal.SIGKILL)
            self.killed = pid


def _dying_grid():
    quick = dict(provisioning=2.0, scale=64, measure_accesses=1_500)
    specs = [
        RunSpec(workload=name, tracked_level=level, **quick)
        for name in ("Oracle", "ocean", "Apache")
        for level in ("L1", "L2")
    ]
    # The victim runs long enough to be killed mid-point.
    victim = RunSpec(
        workload="Qry2", provisioning=2.0, scale=64, measure_accesses=400_000
    )
    return RunGrid([specs[0], victim] + specs[1:]), victim


def _run_bounded(runner, grid):
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.setdefault("report", runner.run(grid)), daemon=True
    )
    thread.start()
    thread.join(RUN_BOUND_SECONDS)
    assert not thread.is_alive(), f"run() did not return within {RUN_BOUND_SECONDS}s"
    return outcome["report"]


def _assert_only_victim_failed(report, grid, victim, cause, store_path, monitor):
    assert list(report.failures) == [victim.key()]
    error = report.failures[victim.key()].error
    assert "died mid-point" in error and cause in error
    others = [spec for spec in grid if spec != victim]
    assert sorted(report.results) == sorted(spec.key() for spec in others)
    reopened = ResultStore(store_path)
    assert all(reopened.get(spec) is not None for spec in others)
    assert reopened.get(victim) is None
    assert monitor.finished_at is not None
    assert monitor.done == len(grid) and monitor.failed == 1


@pytest.mark.parametrize("start_method", START_METHODS)
class TestDyingWorker:
    def test_worker_exit_fails_only_its_point(self, tmp_path, start_method):
        grid, victim = _dying_grid()
        monitor = SweepMonitor()
        store_path = tmp_path / "results.jsonl"
        runner = _ExitingRunner(
            workers=2, store=ResultStore(store_path), start_method=start_method,
            monitor=monitor,
        )
        report = _run_bounded(runner, grid)
        _assert_only_victim_failed(
            report, grid, victim, "exit code 137", store_path, monitor
        )

    def test_sigkilled_worker_fails_only_its_point(self, tmp_path, start_method):
        grid, victim = _dying_grid()
        monitor = _KillingMonitor(victim.workload)
        store_path = tmp_path / "results.jsonl"
        runner = ParallelRunner(
            workers=2, store=ResultStore(store_path), start_method=start_method,
            monitor=monitor,
        )
        report = _run_bounded(runner, grid)
        assert monitor.killed is not None
        _assert_only_victim_failed(
            report, grid, victim, "signal SIGKILL", store_path, monitor
        )
