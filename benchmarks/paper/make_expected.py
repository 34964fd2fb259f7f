#!/usr/bin/env python3
"""Regenerate ``expected/``: the seed-0 outputs the benchmark checks against.

The points are simulated by the engine's own ``execute_spec`` and the figure
reports are rendered by ``repro-run report``, so the output check never
trusts the benchmark's outside-in ``simulate()``.  Writes:

* ``paper_points.json`` - compare fields of the 182 paper-scale points;
* ``quick_points.json`` - the same at the sweep-report quick scale;
* ``fig08.json`` ... ``fig12.json`` - ``report <fig> --reference --format
  json`` over a store holding the quick-scale points.

Run from the repository root (takes about 100 s on a 2-core host)::

    python3 benchmarks/paper/make_expected.py
"""

from __future__ import annotations

import json
import shutil
import tempfile

# bench_paper first: it puts this checkout's src/ on the import path.
from bench_paper import EXPECTED, FIGURES, HERE, QUICK, compare_fields, paper_grid

from repro.engine import cli
from repro.engine.execute import execute_spec
from repro.engine.store import ResultStore


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        store = ResultStore(f"{workdir}/results.jsonl")
        for name, overrides in (("paper_points", {}), ("quick_points", QUICK)):
            entries = []
            for spec in paper_grid(0, **overrides):
                result = execute_spec(spec)
                if overrides:
                    store.put(result)
                entries.append({"key": spec.key(), "result": compare_fields(result)})
            # One point per line keeps a changed point a one-line diff.
            lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
            (EXPECTED / f"{name}.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        store.flush()
        for figure in FIGURES:
            code = cli.main([
                "report", figure, "--reference", "--format", "json",
                "--scale", str(QUICK["scale"]),
                "--measure-accesses", str(QUICK["measure_accesses"]),
                "--seed", "0", "--store", f"{workdir}/results.jsonl",
                "--out", str(EXPECTED / f"{figure}.json"),
            ])
            if code != 0:
                raise SystemExit(f"report {figure} exited {code}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
