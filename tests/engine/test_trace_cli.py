"""CLI tests for the trace subsystem verbs and the CLI satellites."""

import pytest

from repro.engine.cli import main
from repro.engine.spec import RunSpec
from repro.engine.store import ResultStore


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.jsonl")


def _record(tmp_path, name="Oracle", extra=()):
    path = str(tmp_path / f"{name}.npz")
    argv = [
        "trace", "record", name,
        "--out", path,
        "--scale", "64",
        "--num-cores", "8",
        "--measure-accesses", "1500",
    ]
    assert main(argv + list(extra)) == 0
    return path


class TestSpecFields:
    def test_trace_and_mix_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            RunSpec(workload="Oracle", trace="/tmp/t.npz", mix="8xOracle+8xocean")

    def test_mix_grammar_is_validated(self):
        with pytest.raises(ValueError, match="bad mix component"):
            RunSpec(workload="x", mix="Apache+ocean")

    def test_trace_and_mix_change_the_key(self):
        base = RunSpec(workload="Oracle")
        traced = RunSpec(workload="Oracle", trace="/tmp/t.npz")
        mixed = RunSpec(workload="8xOracle+8xocean", mix="8xOracle+8xocean")
        assert len({base.key(), traced.key(), mixed.key()}) == 3

    def test_labels_mark_the_source(self):
        assert "[trace]" in RunSpec(workload="Oracle", trace="t.npz").label()
        assert "[mix]" in RunSpec(workload="m", mix="8xOracle+8xocean").label()

    def test_round_trip_preserves_trace_fields(self):
        spec = RunSpec(workload="Oracle", trace="/tmp/t.npz")
        assert RunSpec.from_dict(spec.to_dict()) == spec


class TestTraceVerbs:
    def test_record_then_info_then_verify(self, tmp_path, capsys):
        path = _record(tmp_path)
        out = capsys.readouterr().out
        assert "recorded" in out and "fingerprint" in out
        assert main(["trace", "info", path, "--verify"]) == 0
        info = capsys.readouterr().out
        assert "Oracle" in info
        assert "fingerprint:  OK" in info

    def test_record_unknown_workload_lists_names(self, tmp_path, capsys):
        assert main(["trace", "record", "Nope", "--out", str(tmp_path / "x.npz")]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "ocean" in err

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "missing.npz")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_replay_simulates_then_hits_cache(self, tmp_path, store_path, capsys):
        path = _record(tmp_path)
        capsys.readouterr()
        argv = ["trace", "replay", path, "--store", store_path, "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Oracle" in first.out
        assert "1 simulated" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "1 cached" in second.err
        assert first.out == second.out

    def test_info_rejects_malformed_header_cleanly(self, tmp_path, capsys):
        import json

        import numpy as np

        empty = np.empty(0, dtype=np.int64)
        arrays = dict(cores=empty, addresses=empty, writes=empty, instrs=empty)
        # Header JSON missing required fields: clean exit, no traceback.
        bad = tmp_path / "bad.npz"
        header = np.frombuffer(
            json.dumps({"workload": "x"}).encode(), dtype=np.uint8
        )
        with bad.open("wb") as handle:
            np.savez(handle, header=header, **arrays)
        assert main(["trace", "info", str(bad)]) == 2
        assert "missing fields" in capsys.readouterr().err
        # Archive missing the array members entirely: also a clean exit.
        truncated = tmp_path / "truncated.npz"
        with truncated.open("wb") as handle:
            np.savez(handle, header=header)
        assert main(["trace", "info", str(truncated)]) == 2
        assert "missing trace arrays" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--sample-measure", "--sample-skip", "--sample-windows"]
    )
    def test_replay_refuses_the_sampling_flags(self, tmp_path, capsys, flag):
        # Sampled replay is gone: a script still passing its flags fails
        # loudly instead of silently running a continuous replay.
        path = str(tmp_path / "Oracle.npz")
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "replay", path, flag, "300"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMixVerb:
    def test_mix_sweep_runs_and_caches(self, tmp_path, store_path, capsys):
        argv = [
            "mix", "4xApache+4xocean",
            "--tracked-levels", "L1",
            "--scale", "64",
            "--measure-accesses", "800",
            "--store", store_path,
            "--serial", "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "4xApache+4xocean" in first.out
        assert "0 hits / 1 misses" in first.err
        assert main(argv) == 0
        assert "1 hits / 0 misses" in capsys.readouterr().err
        assert len(ResultStore(store_path)) == 1

    def test_mix_unknown_program_lists_names(self, capsys):
        assert main(["mix", "4xNope+4xocean"]) == 2
        err = capsys.readouterr().err
        assert "invalid mix" in err and "ocean" in err

    def test_mix_bad_grammar(self, capsys):
        assert main(["mix", "Apache+ocean"]) == 2
        assert "expected" in capsys.readouterr().err


class TestFriendlyErrors:
    def test_run_unknown_workload_exits_with_names(self, capsys):
        assert main(["run", "fig08", "--workloads", "NotAThing"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        for name in ("DB2", "Oracle", "ocean"):
            assert name in err

    def test_sweep_unknown_workload_exits_with_names(self, capsys):
        assert main(["sweep", "--workloads", "Bogus,Oracle"]) == 2
        err = capsys.readouterr().err
        assert "Bogus" in err and "expected" in err and "Zeus" in err


class TestCacheCompact:
    def _populate_with_duplicates(self, store_path):
        from repro.engine.results import RunResult

        store = ResultStore(store_path)
        spec = RunSpec(workload="Oracle", scale=64, measure_accesses=1000)
        result = RunResult(
            spec=spec, accesses=1000, cache_hit_rate=0.5, average_occupancy=0.5,
            occupancy_vs_worst_case=0.5, average_insertion_attempts=1.0,
            forced_invalidation_rate=0.0, insertions=10, insertion_attempts=10,
            forced_invalidations=0, tracked_frames_total=100,
            directory_capacity_total=100, total_messages=100,
        )
        for _ in range(4):  # append-only: 4 lines, 1 live key
            store.put(result)
        return store

    def test_cache_compact_reports_removals_and_bytes(self, store_path, capsys):
        store = self._populate_with_duplicates(store_path)
        before = store.path.stat().st_size
        assert main(["cache", "compact", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "kept 1 entries" in out
        assert "removed 3 superseded records" in out
        assert "saved" in out
        after = ResultStore(store_path)
        assert len(after) == 1
        assert after.path.stat().st_size < before
        with open(store_path) as handle:
            assert sum(1 for _ in handle) == 1

    def test_compact_report_object(self, store_path):
        store = self._populate_with_duplicates(store_path)
        report = store.compact()
        assert report.entries_kept == 1
        assert report.lines_removed == 3
        assert report.bytes_saved > 0
        assert "saved" in str(report)
        # Compacting a compacted store removes nothing further.
        again = ResultStore(store_path).compact()
        assert again.lines_removed == 0
        assert again.bytes_saved == 0

    def test_compact_empty_store(self, store_path, capsys):
        assert main(["cache", "compact", "--store", store_path]) == 0
        assert "kept 0 entries" in capsys.readouterr().out

    def test_cache_clear_action(self, store_path, capsys):
        self._populate_with_duplicates(store_path)
        assert main(["cache", "clear", "--store", store_path]) == 0
        assert "cleared 1 cached results" in capsys.readouterr().out
        assert len(ResultStore(store_path)) == 0

    def test_each_action_has_one_name(self, store_path, capsys):
        self._populate_with_duplicates(store_path)
        for flag in ("--clear", "--compact"):
            with pytest.raises(SystemExit) as exit_info:
                main(["cache", flag, "--store", store_path])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert len(ResultStore(store_path)) == 1  # nothing cleared or compacted


def test_list_includes_mix_experiment(capsys):
    assert main(["list"]) == 0
    assert "mix" in capsys.readouterr().out


def test_run_mix_experiment_through_registry(store_path, capsys):
    assert main([
        "run", "mix",
        "--workloads", "Apache,ocean",
        "--scale", "64",
        "--measure-accesses", "800",
        "--store", store_path,
        "--serial", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "8xApache+8xocean" in out
    assert "Mix sweep" in out
