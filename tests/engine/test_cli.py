"""CLI tests for ``repro-run`` / ``python -m repro.engine``."""

import pytest

from repro.engine.cli import main
from repro.engine.store import ResultStore


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.jsonl")


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig04", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
                 "fig13", "ablation-hash"):
        assert name in out


def test_run_rejects_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_fig08_twice_hits_cache_on_second_invocation(capsys, store_path):
    argv = [
        "run", "fig08",
        "--workloads", "Oracle",
        "--scale", "64",
        "--measure-accesses", "1500",
        "--store", store_path,
        "--serial", "--quiet",
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "Oracle" in first.out
    assert "0 hits / 2 misses" in first.err

    # Second invocation simulates zero points: every point is a cache hit.
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "2 hits / 0 misses" in second.err
    assert first.out == second.out


def test_run_analytical_experiment_without_simulation(capsys, store_path):
    assert main(["run", "fig04", "--store", store_path, "--quiet"]) == 0
    assert "Figure 4" in capsys.readouterr().out
    assert len(ResultStore(store_path)) == 0  # nothing simulated, nothing cached


def test_sweep_builds_product_grid_and_reports(capsys, store_path):
    assert main([
        "sweep",
        "--workloads", "Oracle",
        "--tracked-levels", "L1",
        "--organizations", "cuckoo,sparse",
        "--ways", "4",
        "--provisionings", "1.0,2.0",
        "--scale", "64",
        "--measure-accesses", "1500",
        "--store", store_path,
        "--serial", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "cuckoo" in out and "sparse" in out
    assert len(ResultStore(store_path)) == 4


def test_cache_inspect_and_clear(capsys, store_path):
    main([
        "sweep", "--workloads", "Oracle", "--tracked-levels", "L1",
        "--provisionings", "2.0", "--scale", "64", "--measure-accesses", "1500",
        "--store", store_path, "--serial", "--quiet",
    ])
    capsys.readouterr()

    assert main(["cache", "--store", store_path]) == 0
    assert "entries: 1" in capsys.readouterr().out

    assert main(["cache", "clear", "--store", store_path]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert len(ResultStore(store_path)) == 0
