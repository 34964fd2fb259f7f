"""SweepFrame streaming aggregation: reductions, pivots, serialization."""

import json
import math

import pytest

from repro.analysis.frame import REDUCTIONS, Column, SweepFrame, flatten_record
from repro.analysis.stats import geometric_mean


def _records():
    return [
        {"workload": "Oracle", "config": "L1", "attempts": 1.2, "rate": 0.01},
        {"workload": "Oracle", "config": "L2", "attempts": 1.4, "rate": 0.02},
        {"workload": "ocean", "config": "L1", "attempts": 1.8, "rate": 0.00},
        {"workload": "ocean", "config": "L2", "attempts": 2.0, "rate": 0.04},
    ]


class TestFlattenRecord:
    def test_nested_spec_is_merged(self):
        flat = flatten_record(
            {"spec": {"workload": "Oracle", "ways": 4}, "cache_hit_rate": 0.5}
        )
        assert flat["workload"] == "Oracle"
        assert flat["ways"] == 4
        assert flat["cache_hit_rate"] == 0.5

    def test_histogram_dropped_and_elapsed_kept(self):
        # Point cost is a report column (report --all's cost_seconds).
        flat = flatten_record(
            {"spec": {}, "attempt_histogram": [[1, 5]], "elapsed_seconds": 2.0,
             "accesses": 10}
        )
        assert "attempt_histogram" not in flat
        assert flat["elapsed_seconds"] == 2.0
        assert flat["accesses"] == 10

    def test_run_result_objects_flatten_via_to_dict(self):
        from repro.engine.results import RunResult
        from repro.engine.spec import RunSpec

        result = RunResult(
            spec=RunSpec(workload="Oracle"),
            accesses=100, cache_hit_rate=0.5, average_occupancy=0.4,
            occupancy_vs_worst_case=0.4, average_insertion_attempts=1.1,
            forced_invalidation_rate=0.0, insertions=10, insertion_attempts=11,
            forced_invalidations=0, tracked_frames_total=64,
            directory_capacity_total=64, total_messages=200,
        )
        flat = flatten_record(result)
        assert flat["workload"] == "Oracle"
        assert flat["average_insertion_attempts"] == 1.1

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            flatten_record(42)


class TestAggregate:
    def test_group_means_match_naive_loops(self):
        frame = SweepFrame.aggregate(
            iter(_records()),  # a one-shot iterator: consumed streaming
            group_by=("workload",),
            metrics={"attempts": ("attempts", "mean"), "rate": ("rate", "mean")},
        )
        rows = {row["workload"]: row for row in frame.rows()}
        assert rows["Oracle"]["attempts"] == pytest.approx((1.2 + 1.4) / 2)
        assert rows["ocean"]["rate"] == pytest.approx((0.0 + 0.04) / 2)

    def test_geomean_matches_stats_helper_exactly(self):
        values = [1.2, 1.4, 0.0, 2.5]
        frame = SweepFrame.aggregate(
            ({"v": value} for value in values),
            group_by=(),
            metrics={"g": ("v", "geomean")},
        )
        assert frame.rows()[0]["g"] == geometric_mean(values)

    def test_mean_matches_sum_over_len_exactly(self):
        values = [0.1, 0.2, 0.30000000000000004, 7.7]
        frame = SweepFrame.aggregate(
            ({"v": value} for value in values),
            group_by=(),
            metrics={"m": ("v", "mean")},
        )
        assert frame.rows()[0]["m"] == sum(values) / len(values)

    def test_min_max_sum_count(self):
        frame = SweepFrame.aggregate(
            _records(),
            group_by=(),
            metrics={
                "lo": ("attempts", "min"),
                "hi": ("attempts", "max"),
                "total": ("attempts", "sum"),
                "n": ("attempts", "count"),
            },
        )
        row = frame.rows()[0]
        assert row["lo"] == 1.2 and row["hi"] == 2.0
        assert row["total"] == pytest.approx(1.2 + 1.4 + 1.8 + 2.0)
        assert row["n"] == 4

    def test_group_order_is_first_seen(self):
        frame = SweepFrame.aggregate(
            _records(), group_by=("workload",), metrics={"n": ("attempts", "count")}
        )
        assert [row["workload"] for row in frame.rows()] == ["Oracle", "ocean"]

    def test_where_filters_records(self):
        frame = SweepFrame.aggregate(
            _records(),
            group_by=("workload",),
            metrics={"n": ("attempts", "count")},
            where=lambda record: record["config"] == "L1",
        )
        assert all(row["n"] == 1 for row in frame.rows())

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            SweepFrame.aggregate(
                _records(), group_by=(), metrics={"x": ("attempts", "median")}
            )

    def test_empty_stream_yields_empty_frame(self):
        frame = SweepFrame.aggregate(
            [], group_by=("workload",), metrics={"n": ("attempts", "count")}
        )
        assert len(frame) == 0
        assert frame.rows() == []

    def test_every_reduction_has_an_accumulator(self):
        for name, factory in REDUCTIONS.items():
            accumulator = factory()
            accumulator.add(1.0)
            accumulator.value()


class TestPivot:
    def test_basic_grid(self):
        frame = SweepFrame.from_rows(_records())
        pivot = frame.pivot(
            index="workload", columns="config", value="attempts",
            index_label="Workload", fmt=lambda value: f"{value:.1f}",
        )
        assert pivot.headers == ["Workload", "L1", "L2"]
        assert pivot.rows == [["Oracle", "1.2", "1.4"], ["ocean", "1.8", "2.0"]]

    def test_missing_cell_placeholder_and_default(self):
        rows = _records()[:3]  # ocean has no L2 point
        frame = SweepFrame.from_rows(rows)
        pivot = frame.pivot(index="workload", columns="config", value="attempts")
        assert pivot.rows[1][2] == "-"
        pivot = frame.pivot(
            index="workload", columns="config", value="attempts", default=0.0
        )
        assert pivot.rows[1][2] == "0.0"

    def test_explicit_orders(self):
        frame = SweepFrame.from_rows(_records())
        pivot = frame.pivot(
            index="workload", columns="config", value="attempts",
            index_order=["ocean", "Oracle"], column_order=["L2", "L1"],
        )
        assert pivot.headers == ["workload", "L2", "L1"]
        assert pivot.rows[0][0] == "ocean"

    def test_render_is_an_aligned_table(self):
        text = SweepFrame.from_rows(_records()).pivot(
            index="workload", columns="config", value="attempts"
        ).render(title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1


class TestOutput:
    def test_render_with_columns(self):
        frame = SweepFrame.from_rows(_records())
        text = frame.render(
            [Column("Workload", "workload"),
             Column("Attempts", "attempts", lambda value: f"{value:.2f}")],
            title="Table",
        )
        assert "Workload" in text and "1.20" in text

    def test_csv_round_trip(self):
        frame = SweepFrame.from_rows(_records())
        lines = frame.to_csv().splitlines()
        assert lines[0] == "workload,config,attempts,rate"
        assert lines[1] == "Oracle,L1,1.2,0.01"
        assert len(lines) == 5

    def test_json_round_trip(self):
        frame = SweepFrame.aggregate(
            _records(), group_by=("workload",), metrics={"n": ("attempts", "count")}
        )
        payload = json.loads(frame.to_json())
        assert payload["group_by"] == ["workload"]
        assert payload["rows"][0] == {"workload": "Oracle", "n": 2}

    def test_from_records_field_selection(self):
        frame = SweepFrame.from_records(_records(), fields=("workload", "rate"))
        assert frame.fields() == ["workload", "rate"]
        assert frame.column("rate") == [0.01, 0.02, 0.00, 0.04]
