"""Guards for the whole-paper benchmark (bench_paper.py), at scale 64.

They pin what the benchmark's timings rest on: its workloads cover exactly
the registry's grid, its outside-in ``simulate()`` gives exactly what the
engine gives, and tracing changes no result.
"""

from __future__ import annotations

import json

import pytest

import bench_paper
from repro import obs
from repro.engine.execute import execute_spec

#: One point of each shape ``simulate()`` must reproduce.
SHAPES = {
    "cuckoo-L1": lambda s: s.organization == "cuckoo" and s.tracked_level == "L1"
    and s.mix is None and s.hash_family is None,
    "cuckoo-L2": lambda s: s.organization == "cuckoo" and s.tracked_level == "L2"
    and s.mix is None and s.hash_family is None,
    "sparse": lambda s: s.organization == "sparse",
    "skewed": lambda s: s.organization == "skewed",
    "mix": lambda s: s.mix is not None,
    "strong-hash": lambda s: s.hash_family == "strong",
}


@pytest.fixture(scope="module")
def shape_specs():
    grid = bench_paper.paper_grid(0, scale=64, measure_accesses=1000)
    return {name: next(s for s in grid if pick(s)) for name, pick in SHAPES.items()}


@pytest.fixture(scope="module")
def engine_results(shape_specs):
    return {name: execute_spec(spec) for name, spec in shape_specs.items()}


def test_simulation_workloads_partition_the_registry_grid():
    grid_keys = [spec.key() for spec in bench_paper.paper_grid(0)]
    parts = [
        [spec.key() for spec in bench_paper.workload_specs(name)]
        for name in bench_paper.SIM_WORKLOADS
    ]
    covered = [key for part in parts for key in part]
    assert len(covered) == len(set(covered)), "a point is in two workloads"
    assert set(covered) == set(grid_keys)
    quick_keys = [spec.key() for spec in bench_paper.workload_specs("sweep-report")]
    assert quick_keys == [spec.key() for spec in bench_paper.paper_grid(0, **bench_paper.QUICK)]


@pytest.mark.parametrize(
    "name, overrides", [("paper_points", {}), ("quick_points", bench_paper.QUICK)]
)
def test_expected_covers_exactly_the_grid(name, overrides):
    # A point added to or dropped from the registry must regenerate expected/.
    path = bench_paper.EXPECTED / f"{name}.json"
    keys = [entry["key"] for entry in json.loads(path.read_text(encoding="utf-8"))]
    assert keys == [spec.key() for spec in bench_paper.paper_grid(0, **overrides)]


@pytest.mark.parametrize("shape", SHAPES)
def test_outside_in_simulate_equals_execute_spec(shape, shape_specs, engine_results):
    spec = shape_specs[shape]
    result = bench_paper.simulate(spec)
    assert result == engine_results[shape]
    assert bench_paper.result_problems(spec, result) == []


def test_tracing_leaves_every_result_identical(shape_specs, engine_results):
    recorder = bench_paper.SpanRecorder()
    state = obs.state()
    obs.enable()
    try:
        traced = {name: bench_paper.simulate(spec, recorder) for name, spec in shape_specs.items()}
    finally:
        obs.apply_state(state)
        obs.reset()
    assert traced == engine_results
    totals = recorder.totals()
    assert {"setup.system", "setup.workload", "run_chunks", "trace", "access_batch",
            "occupancy"} <= set(totals)
    assert totals["run_chunks"]["count"] == len(shape_specs)
    assert 0 <= totals["run_chunks"]["self"] < totals["run_chunks"]["total"]
