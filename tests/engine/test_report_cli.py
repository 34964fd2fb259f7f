"""CLI tests for ``repro-run report`` and ``repro-run compare``."""

import csv
import io
import json
from pathlib import Path

import pytest

from repro.engine.cli import main
from repro.engine.store import ResultStore


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.jsonl")


def _seed_fig08(store_path, workloads="Oracle"):
    """Simulate a tiny fig08 sweep into the store; returns the run argv tail."""
    options = [
        "--workloads", workloads,
        "--scale", "64",
        "--measure-accesses", "1500",
        "--store", store_path,
    ]
    assert main(["run", "fig08", *options, "--serial", "--quiet"]) == 0
    return options


class TestReport:
    def test_report_renders_cached_sweep_without_simulating(
        self, capsys, store_path
    ):
        options = _seed_fig08(store_path)
        run_output = capsys.readouterr().out

        store_before = ResultStore(store_path)
        assert main(["report", "fig08", *options]) == 0
        report_output = capsys.readouterr().out
        # The rendered table is identical to the live run's...
        assert report_output.strip() in run_output
        # ...and nothing new was simulated into the store.
        assert len(ResultStore(store_path)) == len(store_before)

    def test_report_refuses_to_simulate_missing_points(self, capsys, store_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        # Different scale -> different content hashes -> not cached.
        exit_code = main([
            "report", "fig08", "--workloads", "Oracle", "--scale", "32",
            "--measure-accesses", "1500", "--store", store_path,
        ])
        assert exit_code == 1
        assert "not in the result store" in capsys.readouterr().err

    def test_report_csv_round_trip(self, capsys, store_path):
        options = _seed_fig08(store_path)
        capsys.readouterr()
        assert main(["report", "fig08", *options, "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {row["series"] for row in rows} == {"Shared L2", "Private L2"}
        assert all(row["point"] == "Oracle" for row in rows)
        assert all(0.0 <= float(row["value"]) <= 1.0 for row in rows)

    def test_report_json_with_reference_scores(self, capsys, store_path):
        options = _seed_fig08(store_path)
        capsys.readouterr()
        assert main(
            ["report", "fig08", *options, "--format", "json", "--reference"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig08"
        assert "Oracle" in payload["series"]["Shared L2"]
        for config in ("Shared L2", "Private L2"):
            score = payload["reference"][config]
            assert score["points"] == 1
            assert "geomean_relative_error" in score
            assert "rank_order_agreement" in score

    def test_report_ascii_reference_summary(self, capsys, store_path):
        options = _seed_fig08(store_path)
        capsys.readouterr()
        assert main(["report", "fig08", *options, "--reference"]) == 0
        out = capsys.readouterr().out
        assert "Paper reference" in out
        assert "Rank agreement" in out

    def test_report_analytical_experiment_needs_no_store(self, capsys, tmp_path):
        missing_store = str(tmp_path / "never-created.jsonl")
        assert main(["report", "fig04", "--store", missing_store]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_report_all_flat_and_grouped(self, capsys, store_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        assert main(["report", "--all", "--store", store_path]) == 0
        flat = capsys.readouterr().out
        assert "Oracle" in flat and "cuckoo" in flat

        assert main([
            "report", "--all", "--store", store_path,
            "--group-by", "workload",
        ]) == 0
        grouped = capsys.readouterr().out
        assert "geomean_attempts" in grouped
        # Both configurations collapse into one Oracle group of 2 points.
        assert "| 2" in grouped.replace("|      2", "| 2")

    def test_report_all_json(self, capsys, store_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        assert main([
            "report", "--all", "--store", store_path, "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["workload"] == "Oracle"

    def test_report_out_writes_file(self, capsys, store_path, tmp_path):
        options = _seed_fig08(store_path)
        capsys.readouterr()
        out = tmp_path / "report.txt"
        assert main(["report", "fig08", *options, "--out", str(out)]) == 0
        assert "Figure 8" in out.read_text()

    def test_report_usage_errors(self, capsys, store_path, tmp_path):
        assert main(["report"]) == 2
        assert "nothing to report" in capsys.readouterr().err
        assert main(["report", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert main(["report", "fig08", "--all"]) == 2
        capsys.readouterr()
        missing = str(tmp_path / "absent.jsonl")
        assert main(["report", "--all", "--store", missing]) == 2
        assert "no result store" in capsys.readouterr().err


def _mutate_store(src, dst, mutate):
    records = [json.loads(line) for line in open(src, encoding="utf-8")]
    for record in records:
        mutate(record["result"])
    with open(dst, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestCompare:
    def test_store_self_comparison_is_clean(self, capsys, store_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        assert main(
            ["compare", store_path, store_path, "--fail-on-regression"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_injected_regression_fails_the_gate(
        self, capsys, store_path, tmp_path
    ):
        _seed_fig08(store_path)
        capsys.readouterr()
        regressed = str(tmp_path / "regressed.jsonl")

        def worsen(result):
            result["average_insertion_attempts"] *= 2.0

        _mutate_store(store_path, regressed, worsen)
        # Without the gate: reported but exit 0.
        assert main(["compare", store_path, regressed]) == 0
        assert "REGRESSION" in capsys.readouterr().out
        # With the gate: non-zero exit.
        assert main(
            ["compare", store_path, regressed, "--fail-on-regression"]
        ) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_improvement_does_not_fail_the_gate(
        self, capsys, store_path, tmp_path
    ):
        _seed_fig08(store_path)
        capsys.readouterr()
        improved = str(tmp_path / "improved.jsonl")

        def improve(result):
            result["average_insertion_attempts"] *= 0.5

        _mutate_store(store_path, improved, improve)
        assert main(
            ["compare", store_path, improved, "--fail-on-regression"]
        ) == 0
        assert "improvement" in capsys.readouterr().out

    def test_compare_json_output(self, capsys, store_path, tmp_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        regressed = str(tmp_path / "regressed.jsonl")
        _mutate_store(
            store_path, regressed,
            lambda result: result.update(
                forced_invalidation_rate=result["forced_invalidation_rate"] + 0.5
            ),
        )
        assert main(
            ["compare", store_path, regressed, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        regressions = [e for e in payload["entries"] if e["regression"]]
        assert regressions
        assert all(
            e["metric"] == "forced_invalidation_rate" for e in regressions
        )

    def test_bench_comparison_gates_on_seconds_and_speedups(
        self, capsys, tmp_path
    ):
        baseline = tmp_path / "BENCH_a.json"
        candidate = tmp_path / "BENCH_b.json"
        baseline.write_text(json.dumps({
            "current_seconds": {"end_to_end_seconds": 1.0},
            "speedup": 4.0,
            "quick": False,
        }))
        candidate.write_text(json.dumps({
            "current_seconds": {"end_to_end_seconds": 1.6},
            "speedup": 2.0,
            "quick": False,
        }))
        assert main([
            "compare", str(baseline), str(baseline), "--fail-on-regression",
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(baseline), str(candidate),
            "--threshold", "0.25", "--fail-on-regression",
        ]) == 1
        out = capsys.readouterr().out
        assert "end_to_end_seconds" in out and "speedup" in out

    def test_threshold_tolerates_small_drift(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_a.json"
        candidate = tmp_path / "BENCH_b.json"
        baseline.write_text(json.dumps({"current_seconds": {"t_seconds": 1.0}}))
        candidate.write_text(json.dumps({"current_seconds": {"t_seconds": 1.1}}))
        assert main([
            "compare", str(baseline), str(candidate),
            "--threshold", "0.2", "--fail-on-regression",
        ]) == 0

    def test_mismatched_kinds_rejected(self, capsys, store_path, tmp_path):
        _seed_fig08(store_path)
        capsys.readouterr()
        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps({"current_seconds": {"t_seconds": 1.0}}))
        assert main(["compare", store_path, str(bench)]) == 2
        assert "cannot compare" in capsys.readouterr().err

    def test_missing_file_rejected(self, capsys, tmp_path):
        assert main([
            "compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_store_metric_cannot_gate_vacuously(
        self, capsys, store_path
    ):
        _seed_fig08(store_path)
        capsys.readouterr()
        assert main([
            "compare", store_path, store_path,
            "--metrics", "avg_attempts",  # typo of average_insertion_attempts
            "--fail-on-regression",
        ]) == 2
        assert "unknown store metric" in capsys.readouterr().err

    def test_bench_metric_filter_matching_nothing_is_an_error(
        self, capsys, tmp_path
    ):
        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps({"current_seconds": {"t_seconds": 1.0}}))
        assert main([
            "compare", str(bench), str(bench),
            "--metrics", "speedupz", "--fail-on-regression",
        ]) == 2
        assert "no benchmark metrics match" in capsys.readouterr().err

    def test_torn_first_store_line_still_detected_as_store(
        self, capsys, store_path, tmp_path
    ):
        _seed_fig08(store_path)
        capsys.readouterr()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            '{"key": "truncat'
            + "\n"
            + open(store_path, encoding="utf-8").read()
        )
        assert main(
            ["compare", store_path, str(torn), "--fail-on-regression"]
        ) == 0
        assert "0 regressions" in capsys.readouterr().out


class TestPoolOnlyStore:
    """Earlier versions' pool workers each appended to their own
    ``<store>.segments/wal-w<pid>.jsonl``, so a store written only by a pool
    has no main WAL file at all.  Such stores must still read and compact."""

    @pytest.fixture
    def pool_store(self, capsys, store_path):
        argv = [
            "run", "fig08", "--workloads", "Oracle", "--scale", "64",
            "--measure-accesses", "1500", "--store", store_path,
            "--workers", "2", "--quiet",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Lay the pool's lines out as those versions did: each in the WAL of
        # the worker that simulated it, and no main WAL.
        segdir = Path(store_path + ".segments")
        segdir.mkdir()
        with open(store_path, encoding="utf-8") as handle:
            for line in handle:
                wal = segdir / f"wal-w{json.loads(line)['result']['worker']}.jsonl"
                with wal.open("a", encoding="utf-8") as out:
                    out.write(line)
        Path(store_path).unlink()
        assert len(list(segdir.glob("wal-*.jsonl"))) == 2
        return store_path

    def test_report_all_reads_per_writer_wals(self, capsys, pool_store):
        assert main(["report", "--all", "--store", pool_store, "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert sorted(row["tracked_level"] for row in rows) == ["L1", "L2"]
        assert main(
            ["report", "--all", "--store", pool_store, "--group-by", "tracked_level"]
        ) == 0

    def test_report_all_shows_point_cost(self, capsys, pool_store):
        assert main(["report", "--all", "--store", pool_store, "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(float(row["elapsed_seconds"]) > 0 for row in rows)
        assert main(
            ["report", "--all", "--store", pool_store, "--group-by", "workload",
             "--format", "json"]
        ) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["points"] == 2
        assert row["cost_seconds"] > 0
        assert row["secs_per_point"] > 0

    def test_cache_size_counts_every_wal(self, capsys, pool_store):
        wal_bytes = sum(
            wal.stat().st_size
            for wal in Path(pool_store + ".segments").glob("wal-*.jsonl")
        )
        assert wal_bytes > 0
        assert main(["cache", "--store", pool_store]) == 0
        assert f"size:    {wal_bytes} bytes" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", pool_store]) == 0
        assert f"wal_bytes    {wal_bytes}" in capsys.readouterr().out

    def test_compact_folds_worker_wals(self, capsys, pool_store, tmp_path):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        assert main(["cache", "export", str(before), "--store", pool_store]) == 0
        assert main(["report", "--all", "--store", pool_store, "--format", "csv"]) == 0
        report_before = capsys.readouterr().out

        compaction = ResultStore(pool_store).compact()
        assert compaction.entries_kept == 2
        assert compaction.lines_removed >= 0
        assert compaction.bytes_after <= compaction.bytes_before
        assert not list(Path(pool_store + ".segments").glob("wal-*.jsonl"))

        assert main(["cache", "export", str(after), "--store", pool_store]) == 0
        assert before.read_bytes() == after.read_bytes()
        assert main(["report", "--all", "--store", pool_store, "--format", "csv"]) == 0
        assert capsys.readouterr().out.split("\n", 1)[1] == report_before.split("\n", 1)[1]

    def test_compare_reads_per_writer_wals(self, capsys, pool_store):
        assert main(
            ["compare", pool_store, pool_store, "--threshold", "0",
             "--fail-on-regression"]
        ) == 0
        assert "2 points compared, 0 regressions" in capsys.readouterr().out
