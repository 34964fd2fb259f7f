"""Telemetry through the CLI: --metrics-out dumps, progress output,
worker/cost fields in results and reports."""

import json

import pytest

from repro import obs
from repro.core import native
from repro.engine.cli import main
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.store import ResultStore


@pytest.fixture(autouse=True)
def clean_obs_state():
    """CLI commands enable the global telemetry singletons; keep the rest
    of the suite running with them off and zeroed."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.jsonl")


def _sweep_argv(store_path, *extra):
    return [
        "sweep",
        "--workloads", "Oracle",
        "--tracked-levels", "L1",
        "--scale", "64",
        "--measure-accesses", "1500",
        "--store", store_path,
        "--serial",
        *extra,
    ]


class TestMetricsOut:
    def test_sweep_writes_a_schema_stamped_dump(self, capsys, tmp_path, store_path):
        dump = tmp_path / "metrics.json"
        argv = _sweep_argv(store_path, "--quiet", "--metrics-out", str(dump))
        assert main(argv) == 0
        document = json.loads(dump.read_text())
        assert document["schema"] == "repro-obs/1"
        assert document["meta"]["command"] == "sweep"
        counters = document["metrics"]["counters"]
        assert counters["sim.run.measured_accesses"] == 1500
        assert counters["sim.batch.chunks"] >= 1
        assert counters["store.puts"] == 1
        # Every chunk runs through the compiled drain ("drain_vector").
        phases = document["phases"]
        assert "drain_vector" in phases
        assert "translate" in phases
        assert "batch_kernel" not in phases
        sweep = document["meta"]["sweep"]
        assert sweep["total"] == 1 and sweep["done"] == 1
        assert document["meta"]["native"] == native.STATUS
        assert "metrics written to" in capsys.readouterr().err

    def test_pooled_sweep_counts_each_put_once_in_the_parent(
        self, capsys, tmp_path, store_path
    ):
        dump = tmp_path / "metrics.json"
        argv = [
            "sweep", "--workloads", "Oracle", "--tracked-levels", "L1,L2",
            "--seeds", "0,1", "--scale", "64", "--measure-accesses", "1500",
            "--store", store_path, "--workers", "2", "--quiet",
            "--metrics-out", str(dump),
        ]
        assert main(argv) == 0
        document = json.loads(dump.read_text())
        counters = document["metrics"]["counters"]
        # Worker metrics and spans are absorbed; the puts happen in the parent.
        assert counters["sim.run.measured_accesses"] == 4 * 1500
        assert counters["store.puts"] == 4
        assert "drain_vector" in document["phases"]
        sweep = document["meta"]["sweep"]
        assert sweep["simulated"] == 4
        rows = sweep["workers"]
        assert len(rows) == 2
        assert sum(row["points_done"] for row in rows) == 4
        assert all(row["current"] == "" for row in rows)
        assert "beats" not in rows[0]
        assert len(ResultStore(store_path)) == 4

    def test_quiet_without_metrics_out_keeps_telemetry_off(self, capsys, store_path):
        assert main(_sweep_argv(store_path, "--quiet")) == 0
        assert obs.REGISTRY.counter("sim.batch.chunks").value == 0
        assert "Phase breakdown" not in capsys.readouterr().err


class TestProgressOutput:
    def test_non_quiet_sweep_prints_progress_and_breakdown(self, capsys, store_path):
        assert main(_sweep_argv(store_path)) == 0
        err = capsys.readouterr().err
        # capsys streams are not TTYs, so the renderer emits plain lines.
        assert "1/1" in err
        assert "Phase breakdown" in err
        assert "drain_vector" in err

    def test_quiet_suppresses_progress(self, capsys, store_path):
        assert main(_sweep_argv(store_path, "--quiet")) == 0
        err = capsys.readouterr().err
        assert "Phase breakdown" not in err


class TestLoggingFlags:
    def test_log_json_emits_parseable_lines(self, capsys, store_path):
        argv = _sweep_argv(
            store_path, "--quiet", "--log-level", "info", "--log-json"
        )
        assert main(argv) == 0
        err = capsys.readouterr().err
        records = [
            json.loads(line) for line in err.splitlines() if line.startswith("{")
        ]
        simulated = [r for r in records if r["msg"].startswith("simulated")]
        assert simulated
        assert simulated[0]["workload"] == "Oracle"
        assert "spec" in simulated[0]

    def test_log_level_info_names_the_walk_and_drain(self, capsys, store_path):
        """The loader logs before the CLI configures logging, so the CLI
        repeats the loader's line once logging is up."""
        argv = _sweep_argv(store_path, "--quiet", "--log-level", "info")
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert native.STATUS in err
        assert "compiled walk and drain loaded from" in native.STATUS


class TestWorkerAndCostFields:
    def test_run_result_round_trips_worker_and_elapsed(self, tmp_path):
        spec = RunSpec(
            workload="Oracle", tracked_level="L1", scale=64, measure_accesses=100
        )
        result = RunResult(
            spec=spec,
            accesses=100,
            cache_hit_rate=0.5,
            average_occupancy=0.4,
            occupancy_vs_worst_case=0.6,
            average_insertion_attempts=1.1,
            forced_invalidation_rate=0.0,
            insertions=10,
            insertion_attempts=11,
            forced_invalidations=0,
            tracked_frames_total=64,
            directory_capacity_total=64,
            total_messages=200,
            elapsed_seconds=1.5,
            worker="4242",
        )
        restored = RunResult.from_dict(result.to_dict())
        assert restored.worker == "4242"
        assert restored.elapsed_seconds == 1.5
        assert restored == result  # worker/elapsed stay out of equality

    def test_legacy_record_without_worker_defaults_empty(self):
        spec = RunSpec(
            workload="Oracle", tracked_level="L1", scale=64, measure_accesses=100
        )
        payload = RunResult(
            spec=spec,
            accesses=100,
            cache_hit_rate=0.5,
            average_occupancy=0.4,
            occupancy_vs_worst_case=0.6,
            average_insertion_attempts=1.1,
            forced_invalidation_rate=0.0,
            insertions=10,
            insertion_attempts=11,
            forced_invalidations=0,
            tracked_frames_total=64,
            directory_capacity_total=64,
            total_messages=200,
        ).to_dict()
        del payload["worker"]
        del payload["elapsed_seconds"]
        restored = RunResult.from_dict(payload)
        assert restored.worker == ""
        assert restored.elapsed_seconds == 0.0

    def test_simulated_points_record_worker_pid(self, capsys, store_path):
        assert main(_sweep_argv(store_path, "--quiet")) == 0
        capsys.readouterr()
        (result,) = list(ResultStore(store_path).iter_results())
        assert result.worker.isdigit()
        assert result.elapsed_seconds > 0.0

    def test_report_all_aggregates_cost(self, capsys, store_path):
        main(_sweep_argv(store_path, "--quiet"))
        capsys.readouterr()
        assert main([
            "report", "--all", "--store", store_path, "--group-by", "workload",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost_seconds" in out
        assert "secs_per_point" in out
