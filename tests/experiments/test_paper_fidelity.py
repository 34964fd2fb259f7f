"""Fidelity gate: the paper-scale figures against the digitized paper curves.

``golden/paper_fidelity.json`` pins each figure's per-series geomean relative
error and rank agreement at scale 16, seed 0.  This test rebuilds them with
no simulation: the benchmark's expected paper points
(``benchmarks/paper/expected/paper_points.json``, read only) are loaded into a
temporary store and scored through ``repro-run report <fig> --reference
--format json``.  A change that worsens a geomean error by more than
``TOLERANCE`` or lowers a rank agreement fails here, unless it re-pins the
golden file and gives the reason in CHANGES.md.  Across seeds 0-2 no geomean
error moved by more than 0.023, so the tolerance separates a real loss from
seed noise.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.engine import cli
from repro.engine.results import RunResult
from repro.engine.store import ResultStore

ROOT = Path(__file__).resolve().parents[2]
POINTS = ROOT / "benchmarks" / "paper" / "expected" / "paper_points.json"
GOLDEN = json.loads((Path(__file__).parent / "golden" / "paper_fidelity.json").read_text())

#: How far a geomean relative error may rise before the gate fails.
TOLERANCE = 0.03


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("fidelity") / "paper.jsonl"
    store = ResultStore(path)
    for record in json.loads(POINTS.read_text()):
        store.put(RunResult.from_dict(record["result"]))
    store.flush()
    return path


@pytest.mark.parametrize("figure", sorted(GOLDEN["scores"]))
def test_paper_scale_fidelity_holds(figure, store, tmp_path):
    out = tmp_path / f"{figure}.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([
            "report", figure, "--reference", "--format", "json", "--store", str(store),
            "--scale", str(GOLDEN["scale"]), "--seed", str(GOLDEN["seed"]), "--out", str(out),
        ])
    assert code == 0
    scores = json.loads(out.read_text())["reference"]
    pinned = GOLDEN["scores"][figure]
    assert sorted(scores) == sorted(pinned)
    for series, golden in pinned.items():
        score = scores[series]
        assert score["geomean_relative_error"] <= golden["geomean_relative_error"] + TOLERANCE, (
            f"{figure} {series}: geomean relative error {score['geomean_relative_error']:.3f} "
            f"against {golden['geomean_relative_error']:.3f} pinned"
        )
        assert score["rank_order_agreement"] >= golden["rank_order_agreement"] - 1e-6, (
            f"{figure} {series}: rank agreement {score['rank_order_agreement']:+.2f} "
            f"against {golden['rank_order_agreement']:+.2f} pinned"
        )
