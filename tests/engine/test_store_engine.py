"""Result-store tests: last-wins across WALs, multi-writer appends, crash safety.

The single-WAL behaviours (JSONL durability, compaction byte-identity, hit
and miss accounting) are pinned by ``test_store.py``; this module covers
what per-writer WALs add on top — last-wins across WALs, export/import,
concurrent writers, torn-write recovery — and the loud failure on a store
an earlier version sealed into columnar segments.
"""

import json
import logging
import multiprocessing
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.engine.cli import main
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.store import (
    ResultStore,
    SealedStoreError,
    iter_store_records,
    segments_dir,
)

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _spec(**overrides):
    base = dict(workload="Oracle", tracked_level="L1", provisioning=2.0,
                scale=64, measure_accesses=1_500)
    base.update(overrides)
    return RunSpec(**base)


def _result(spec, **overrides):
    base = dict(
        spec=spec, accesses=1_000, cache_hit_rate=0.9, average_occupancy=0.5,
        occupancy_vs_worst_case=0.8, average_insertion_attempts=1.25,
        forced_invalidation_rate=0.0, insertions=10, insertion_attempts=12,
        forced_invalidations=0, tracked_frames_total=100,
        directory_capacity_total=128, total_messages=5,
    )
    base.update(overrides)
    return RunResult(**base)


# -- last-wins across WALs ----------------------------------------------------
class TestLastWinsAcrossWals:
    """The newest commit stamp wins, whichever WAL it sits in."""

    def test_writer_wal_supersedes_older_main_record(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(_result(_spec(), accesses=1))
        ResultStore(path, writer="w1", preload=False).put(_result(_spec(), accesses=2))

        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get(_spec()).accesses == 2
        assert [p["accesses"] for _k, p in iter_store_records(path)] == [2]

    def test_newer_main_record_beats_earlier_writer_wal(self, tmp_path):
        # The main WAL is read first, so scan order alone would pick the
        # writer's record: the commit stamp must decide.
        path = tmp_path / "results.jsonl"
        ResultStore(path, writer="w1", preload=False).put(_result(_spec(), accesses=1))
        ResultStore(path).put(_result(_spec(), accesses=2))

        assert ResultStore(path).get(_spec()).accesses == 2
        assert [p["accesses"] for _k, p in iter_store_records(path)] == [2]

    def test_legacy_timestampless_wal_lines_order_by_position(self, tmp_path):
        # Lines written before commit stamps existed carry no ``ts``: scan
        # position stands in for the stamp, so the later line wins, and any
        # stamped record written since wins over both.
        path = tmp_path / "results.jsonl"
        key = _spec().key()
        with path.open("w", encoding="utf-8") as handle:
            for accesses in (1, 7):
                handle.write(json.dumps(
                    {"key": key, "result": _result(_spec(), accesses=accesses).to_dict()}
                ) + "\n")

        assert ResultStore(path).get(_spec()).accesses == 7
        assert [p["accesses"] for _k, p in iter_store_records(path)] == [7]

        ResultStore(path, writer="w1", preload=False).put(_result(_spec(), accesses=9))
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get(_spec()).accesses == 9

    def test_last_wins_across_compactions(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(_result(_spec(), accesses=1))
        ResultStore(path).compact()
        ResultStore(path, writer="w1", preload=False).put(_result(_spec(), accesses=2))
        report = ResultStore(path).compact()
        assert report.entries_kept == 1
        assert report.lines_removed == 1

        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get(_spec()).accesses == 2
        assert path.read_bytes().count(b"\n") == 1
        assert not list(segments_dir(path).glob("wal-*.jsonl"))

    def test_compaction_removes_the_emptied_segments_dir(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for writer, workload in (("w1", "Oracle"), ("w2", "DB2")):
            ResultStore(path, writer=writer, preload=False).put(
                _result(_spec(workload=workload))
            )
        assert segments_dir(path).is_dir()
        ResultStore(path).compact()
        assert not segments_dir(path).exists()
        assert len(ResultStore(path)) == 2

    def test_compaction_keeps_a_segments_dir_holding_a_foreign_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path, writer="w1", preload=False).put(_result(_spec()))
        foreign = segments_dir(path) / "notes.txt"
        foreign.write_text("not a WAL", encoding="utf-8")
        ResultStore(path).compact()
        assert foreign.read_text(encoding="utf-8") == "not a WAL"
        assert not list(segments_dir(path).glob("wal-*.jsonl"))
        assert len(ResultStore(path)) == 1

    def test_non_conforming_payload_survives_compaction_and_export(self, tmp_path):
        # A payload that does not decode as a RunResult (say, from a newer
        # schema) is not this reader's to drop: compaction keeps it as is.
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(_result(_spec()))
        payload = {"custom": 1, "nested": {"a": [1, 2]}, "note": "not a RunResult"}
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"key": "deadbeef", "ts": time.time_ns(), "result": payload}
            ) + "\n")

        assert ResultStore(path).compact().entries_kept == 2
        reopened = ResultStore(path)
        assert dict(reopened.iter_records())["deadbeef"] == payload
        assert [r.spec for r in reopened.iter_results()] == [_spec()]

        exported = tmp_path / "export.jsonl"
        assert reopened.export_jsonl(exported) == 2
        lines = exported.read_text(encoding="utf-8").splitlines()
        assert lines[-1] == json.dumps({"key": "deadbeef", "result": payload})


# -- export / import ----------------------------------------------------------
class TestExportImport:
    def test_round_trip_is_byte_identical_and_last_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put(_result(_spec(), accesses=1))
        store.put(_result(_spec(seed=7)))
        store.put(_result(_spec(), accesses=2))  # supersedes the first record

        first = tmp_path / "first.jsonl"
        assert store.export_jsonl(first) == 2

        fresh_path = tmp_path / "fresh.jsonl"
        fresh = ResultStore(fresh_path)
        assert fresh.import_jsonl(first) == (2, 0)
        assert fresh.get(_spec()).accesses == 2

        second = tmp_path / "second.jsonl"
        ResultStore(fresh_path).export_jsonl(second)
        assert first.read_bytes() == second.read_bytes()

    def test_import_drops_and_counts_malformed_payloads(self, tmp_path):
        source = tmp_path / "backup.jsonl"
        good = _result(_spec())
        with source.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"key": good.spec.key(), "result": good.to_dict()}
            ) + "\n")
            handle.write(json.dumps(
                {"key": "bad", "result": {"garbage": True}}
            ) + "\n")

        store = ResultStore(tmp_path / "results.jsonl")
        assert store.import_jsonl(source) == (1, 1)
        assert store.keys() == [good.spec.key()]


# -- malformed records and corrupt sidecars -----------------------------------
class TestRotTolerance:
    def test_malformed_record_is_dropped_counted_and_missed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(_result(_spec()))
        with path.open("a", encoding="utf-8") as handle:
            # A newer envelope whose payload no longer decodes.
            handle.write(json.dumps({
                "key": _spec().key(),
                "ts": time.time_ns() + 10**9,
                "result": {"garbage": True},
            }) + "\n")

        store = ResultStore(path)
        assert store.get(_spec()) is None
        assert store.malformed == 1
        assert store.misses == 1

        again = ResultStore(path)
        assert list(again.iter_results()) == []
        assert again.malformed == 1

    def test_corrupt_timeline_sidecar_warns_with_key_and_path(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        result = _result(_spec())
        store.put(result)
        key = result.spec.key()
        sidecar = store.timeline_path(key)
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_bytes(b"this is not an npz archive")

        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.engine.store")
        logger.addHandler(handler)
        previous = logger.level
        logger.setLevel(logging.WARNING)
        try:
            assert store.get_timeline(key) is None
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)

        warned = [r for r in records if "corrupt timeline sidecar" in r.getMessage()]
        assert len(warned) == 1
        assert warned[0].key == key
        assert warned[0].sidecar == str(sidecar)


# -- concurrent writers -------------------------------------------------------
def _torture_worker(path_str, writer_id, count):
    store = ResultStore(Path(path_str), writer=f"t{writer_id}", preload=False)
    for i in range(count):
        store.put(_result(_spec(seed=writer_id * 1_000 + i)))
    store.flush()


class TestMultiWriter:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_concurrent_writers_merge_without_loss(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        ctx = multiprocessing.get_context(method)
        path = tmp_path / "results.jsonl"
        writers, per_writer = 4, 12
        processes = [
            ctx.Process(target=_torture_worker, args=(str(path), w, per_writer))
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(process.exitcode == 0 for process in processes)

        store = ResultStore(path)
        expected = {
            _spec(seed=w * 1_000 + i).key()
            for w in range(writers)
            for i in range(per_writer)
        }
        records = list(store.iter_records())
        assert {key for key, _payload in records} == expected
        assert len(records) == len(expected)  # every key exactly once
        assert sum(1 for _ in store.iter_results()) == len(expected)
        assert store.malformed == 0

    def test_kill_mid_put_keeps_every_complete_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        script = tmp_path / "endless_writer.py"
        script.write_text(textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {_SRC_DIR!r})
            from pathlib import Path
            from repro.engine.results import RunResult
            from repro.engine.spec import RunSpec
            from repro.engine.store import ResultStore

            store = ResultStore(Path(sys.argv[1]))
            seed = 0
            while True:
                spec = RunSpec(workload="Oracle", tracked_level="L1",
                               provisioning=2.0, scale=64,
                               measure_accesses=1_500, seed=seed)
                store.put(RunResult(
                    spec=spec, accesses=seed, cache_hit_rate=0.9,
                    average_occupancy=0.5, occupancy_vs_worst_case=0.8,
                    average_insertion_attempts=1.25,
                    forced_invalidation_rate=0.0, insertions=10,
                    insertion_attempts=12, forced_invalidations=0,
                    tracked_frames_total=100, directory_capacity_total=128,
                    total_messages=5))
                seed += 1
        """))
        process = subprocess.Popen([sys.executable, str(script), str(path)])
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if path.exists() and path.read_bytes().count(b"\n") >= 20:
                    break
                time.sleep(0.01)
        finally:
            process.kill()
            process.wait(timeout=30)

        raw = path.read_bytes()
        complete = raw[: raw.rfind(b"\n") + 1].splitlines()
        assert len(complete) >= 20
        # Every line the writer finished decodes to a full record.
        for line in complete:
            record = json.loads(line)
            RunResult.from_dict(record["result"])
        # A write the kill cut short leaves a torn final line.
        with path.open("ab") as handle:
            handle.write(complete[-1][: len(complete[-1]) // 2])

        store = ResultStore(path)
        assert len(store) == len(complete)
        assert sum(1 for _ in store.iter_results()) == len(complete)
        assert store.malformed == 0
        for seed in range(len(complete)):
            assert store.get(_spec(seed=seed)).accesses == seed


# -- cache CLI: export / import / stats ---------------------------------------
class TestCacheCli:
    def test_export_import_and_stats(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        store = ResultStore(store_path)
        store.put(_result(_spec()))
        store.put(_result(_spec(seed=7)))

        backup = str(tmp_path / "backup.jsonl")
        assert main(["cache", "export", backup, "--store", store_path]) == 0
        assert "exported 2 records" in capsys.readouterr().out

        target = str(tmp_path / "fresh.jsonl")
        assert main(["cache", "import", backup, "--store", target]) == 0
        assert "imported 2 records" in capsys.readouterr().out
        assert len(ResultStore(target)) == 2

        assert main(["cache", "stats", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "wal_bytes" in out

        assert main(["cache", "--store", store_path]) == 0
        size = Path(store_path).stat().st_size
        assert f"size:    {size} bytes" in capsys.readouterr().out

    def test_export_and_import_require_a_file_operand(self, tmp_path, capsys):
        store_path = str(tmp_path / "results.jsonl")
        assert main(["cache", "export", "--store", store_path]) == 2
        assert "destination FILE" in capsys.readouterr().err
        assert main(["cache", "import", "--store", store_path]) == 2
        assert "source FILE" in capsys.readouterr().err
        assert main(
            ["cache", "import", str(tmp_path / "absent.jsonl"), "--store", store_path]
        ) == 2
        assert "no such file" in capsys.readouterr().err


# -- stores sealed by an earlier version ------------------------------------
class TestSealedStore:
    """A ``<store>.segments/MANIFEST.json`` fails loudly, never as a partial store."""

    @pytest.fixture
    def sealed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(_result(_spec()))  # WAL residue beside segments
        segdir = segments_dir(path)
        segdir.mkdir()
        (segdir / "MANIFEST.json").write_text('{"spec_version": 2, "segments": []}')
        return path

    def test_open_names_the_export_import_route(self, sealed):
        for open_store in (
            ResultStore,
            lambda path: ResultStore(path, writer="w1", preload=False),
            lambda path: list(iter_store_records(path)),
        ):
            with pytest.raises(SealedStoreError) as info:
                open_store(sealed)
            assert "cache export" in str(info.value)
            assert "cache import" in str(info.value)

    def test_cli_fails_with_the_export_import_message(self, sealed, capsys):
        for argv in (["cache"], ["cache", "stats"], ["report", "--all"]):
            assert main([*argv, "--store", str(sealed)]) == 2
            err = capsys.readouterr().err
            assert "cache export" in err and "cache import" in err
        # Without its main WAL the store still fails loudly, not as absent.
        sealed.unlink()
        assert main(["report", "--all", "--store", str(sealed)]) == 2
        assert "cache import" in capsys.readouterr().err
