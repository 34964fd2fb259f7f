"""Rendering and comparison of sweeps, experiment results and benchmarks.

Three jobs, all downstream of :mod:`repro.analysis.frame`:

* **Series extraction** — :func:`experiment_series` turns any experiment
  driver's result object into tidy ``{series: {point: value}}`` data, the
  common currency of CSV/JSON report output and of reference scoring.
* **Reference scoring** — :func:`reference_scores` /
  :func:`reference_summary` compare a result against the digitized paper
  curves (:mod:`repro.analysis.reference`) and render the error metrics.
* **Comparison & regression gating** — :func:`compare_files` diffs two
  result stores or two ``BENCH_*.json`` records metric-by-metric and
  classifies each delta against a direction-aware threshold, producing a
  :class:`CompareReport` the CLI can gate CI on (``--fail-on-regression``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.frame import SweepFrame
from repro.analysis.reference import REFERENCES, ReferenceScore
from repro.analysis.tables import render_table

__all__ = [
    "STORE_METRIC_DIRECTIONS",
    "ComparedMetric",
    "CompareReport",
    "compare_files",
    "experiment_series",
    "reference_scores",
    "reference_summary",
    "series_frame",
]


# -- series extraction -------------------------------------------------------
def _scalability_series(results) -> Dict[str, Dict[str, float]]:
    """Tidy series for the Figure 4 / Figure 13 analytical projections."""
    series: Dict[str, Dict[str, float]] = {}
    for scenario_name, result in results.items():
        for metric in ("energy", "area"):
            label = f"{scenario_name} {metric}"
            series[label] = {
                f"{organization}@{cores}": result.series[organization][cores][metric]
                for organization in result.series
                for cores in result.core_counts
            }
    return series


def experiment_series(name: str, result: object) -> Dict[str, Dict[str, float]]:
    """``{series label: {point label: value}}`` for any experiment result.

    The labels of series that have a digitized paper counterpart match the
    reference curves in :mod:`repro.analysis.reference.curves`, so the
    same extraction feeds CSV/JSON output and reference scoring.
    """
    if name in ("fig04", "fig13"):
        series = _scalability_series(result)
        if name == "fig13":
            from repro.experiments.fig13_power_area import headline_ratios

            series["Headline"] = dict(headline_ratios(result))
        return series
    if name == "fig07":
        series = {}
        for arity, characteristics in result.items():
            series[f"{arity}-ary attempts"] = {
                f"{occupancy:.3f}": attempts
                for occupancy, attempts in zip(
                    characteristics.occupancy_bins,
                    characteristics.average_attempts,
                )
            }
            series[f"{arity}-ary failure"] = {
                f"{occupancy:.3f}": failure
                for occupancy, failure in zip(
                    characteristics.occupancy_bins,
                    characteristics.failure_probability,
                )
            }
        return series
    if name in ("fig08", "fig10"):
        return {
            "Shared L2": dict(result.shared_l2),
            "Private L2": dict(result.private_l2),
        }
    if name == "fig09":
        series = {}
        for config, points in result.configurations().items():
            series[config] = {
                point.label: point.average_insertion_attempts for point in points
            }
            series[f"{config} invalidation rate"] = {
                point.label: point.forced_invalidation_rate for point in points
            }
        return series
    if name == "fig11":
        return {
            label: {str(attempts): fraction for attempts, fraction in distribution.items()}
            for label, distribution in result.distributions.items()
        }
    if name == "fig12":
        series = {}
        for config, rates in result.configurations().items():
            # Suite-mean rate per organization: the digitized Figure 12 shape.
            series[config] = {
                organization: (
                    sum(per_workload.values()) / len(per_workload)
                    if per_workload
                    else 0.0
                )
                for organization, per_workload in rates.items()
            }
            for organization, per_workload in rates.items():
                series[f"{config} / {organization}"] = dict(per_workload)
        return series
    if name == "mix":
        series: Dict[str, Dict[str, float]] = {}
        for scenario, per_config in result.scenarios.items():
            for config, (occupancy, invalidations) in per_config.items():
                series.setdefault(f"{config} occupancy", {})[scenario] = occupancy
                series.setdefault(f"{config} invalidation rate", {})[
                    scenario
                ] = invalidations
        return series
    if name == "ablation-hash":
        return {
            "average insertion attempts": {
                key: point.average_insertion_attempts
                for key, point in result.items()
            },
            "forced invalidation rate": {
                key: point.forced_invalidation_rate
                for key, point in result.items()
            },
        }
    raise KeyError(f"no series extraction for experiment {name!r}")


def series_frame(series: Mapping[str, Mapping[str, float]]) -> SweepFrame:
    """Flatten tidy series into a (series, point, value) frame."""
    return SweepFrame.from_rows(
        {"series": label, "point": point, "value": value}
        for label, points in series.items()
        for point, value in points.items()
    )


# -- reference scoring -------------------------------------------------------
def reference_scores(
    name: str, result: object
) -> Optional[Dict[str, ReferenceScore]]:
    """Error metrics vs. the digitized paper curve (None when undigitized)."""
    reference = REFERENCES.get(name)
    if reference is None:
        return None
    return reference.score(experiment_series(name, result))


def reference_summary(name: str, result: object) -> Optional[str]:
    """ASCII table of the paper-reference error metrics (None if no curve)."""
    scores = reference_scores(name, result)
    if scores is None:
        return None
    reference = REFERENCES[name]
    headers = [
        "Series", "Points", "Geomean rel err", "Max rel dev",
        "Max abs dev", "Rank agreement",
    ]
    rows = [
        [
            label,
            score.points,
            f"{score.geomean_relative_error:.3f}",
            f"{score.max_relative_deviation:.3f}",
            f"{score.max_absolute_deviation:.4g}",
            f"{score.rank_order_agreement:+.2f}",
        ]
        for label, score in scores.items()
    ]
    return render_table(
        headers, rows, title=f"Paper reference: {reference.title}"
    )


# -- comparison and regression gating ----------------------------------------
#: Improvement direction per RunResult metric; "none" metrics are reported
#: but never gate a comparison.
STORE_METRIC_DIRECTIONS: Dict[str, str] = {
    "average_insertion_attempts": "lower",
    "forced_invalidation_rate": "lower",
    "total_messages": "lower",
    "cache_hit_rate": "higher",
    "occupancy_vs_worst_case": "none",
    "average_occupancy": "none",
}


@dataclass(frozen=True)
class ComparedMetric:
    """One (entry, metric) pair compared between baseline and candidate."""

    label: str
    metric: str
    baseline: float
    candidate: float
    direction: str  # "lower" | "higher" | "none"
    threshold: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def relative_change(self) -> float:
        if self.baseline:
            return self.delta / abs(self.baseline)
        return 0.0 if not self.delta else math.copysign(math.inf, self.delta)

    @property
    def regression(self) -> bool:
        if self.direction == "lower":
            return self.relative_change > self.threshold
        if self.direction == "higher":
            return self.relative_change < -self.threshold
        return False

    @property
    def improvement(self) -> bool:
        if self.direction == "lower":
            return self.relative_change < -self.threshold
        if self.direction == "higher":
            return self.relative_change > self.threshold
        return False


@dataclass
class CompareReport:
    """Outcome of diffing two sweeps or two benchmark records."""

    kind: str  # "store" | "bench"
    baseline: str
    candidate: str
    threshold: float
    entries: List[ComparedMetric] = field(default_factory=list)
    compared: int = 0
    only_baseline: int = 0
    only_candidate: int = 0

    @property
    def regressions(self) -> List[ComparedMetric]:
        return [entry for entry in self.entries if entry.regression]

    @property
    def improvements(self) -> List[ComparedMetric]:
        return [entry for entry in self.entries if entry.improvement]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        parts = [
            f"{self.compared} {'points' if self.kind == 'store' else 'metrics'} compared",
            f"{len(self.regressions)} regressions",
            f"{len(self.improvements)} improvements",
        ]
        if self.only_baseline:
            parts.append(f"{self.only_baseline} only in baseline")
        if self.only_candidate:
            parts.append(f"{self.only_candidate} only in candidate")
        return ", ".join(parts)

    def render(self, show_all: bool = False) -> str:
        """ASCII comparison: changed entries (or all), then the summary."""
        shown = [
            entry
            for entry in self.entries
            if show_all or entry.regression or entry.improvement
        ]
        headers = ["Entry", "Metric", "Baseline", "Candidate", "Change", "Verdict"]
        rows = []
        for entry in shown:
            relative = entry.relative_change
            change = (
                f"{relative:+.1%}" if math.isfinite(relative) else "new-nonzero"
            )
            verdict = (
                "REGRESSION"
                if entry.regression
                else ("improvement" if entry.improvement else "~")
            )
            rows.append(
                [
                    entry.label,
                    entry.metric,
                    f"{entry.baseline:.6g}",
                    f"{entry.candidate:.6g}",
                    change,
                    verdict,
                ]
            )
        title = (
            f"Comparison ({self.kind}): {self.baseline} -> {self.candidate} "
            f"(threshold {self.threshold:.1%})"
        )
        table = render_table(headers, rows, title=title)
        return f"{table}\n{self.summary()}"

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "baseline": self.baseline,
                "candidate": self.candidate,
                "threshold": self.threshold,
                "summary": self.summary(),
                "ok": self.ok,
                "entries": [
                    {
                        "label": entry.label,
                        "metric": entry.metric,
                        "baseline": entry.baseline,
                        "candidate": entry.candidate,
                        "delta": entry.delta,
                        "relative_change": (
                            entry.relative_change
                            if math.isfinite(entry.relative_change)
                            else None
                        ),
                        "direction": entry.direction,
                        "regression": entry.regression,
                        "improvement": entry.improvement,
                    }
                    for entry in self.entries
                ],
            },
            indent=indent,
        )


def _detect_kind(path: Path) -> str:
    """"store" for JSONL result stores, "bench" for BENCH_*.json records.

    A store is any file with a ``{"key": ..., "result": ...}`` record in
    its first lines — torn or corrupt leading lines are skipped, matching
    the tolerance of :class:`~repro.engine.store.ResultStore` loads.
    An existing store with no main WAL at all is also a store (pool
    workers write only per-writer WALs).  Anything else that parses as
    one JSON document is a benchmark record.
    """
    if not path.is_file():
        return "store"
    probed = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            probed += 1
            if probed > 50:
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn store line, or one line of a pretty JSON doc
            if isinstance(record, dict) and "key" in record and "result" in record:
                return "store"
    if probed == 0:
        return "store"  # empty file: treat as an empty store
    try:
        with path.open("r", encoding="utf-8") as handle:
            json.load(handle)
        return "bench"
    except json.JSONDecodeError:
        return "store"  # line-corrupt JSONL: the tolerant store reader applies


def _store_entries(path: Path) -> Dict[str, Tuple[str, Dict[str, float]]]:
    """``{spec key: (label, {metric: value})}`` streamed from a store file."""
    from repro.engine.results import RunResult
    from repro.engine.store import iter_store_records

    entries: Dict[str, Tuple[str, Dict[str, float]]] = {}
    for key, payload in iter_store_records(path):
        try:
            result = RunResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            continue
        metrics = {
            name: float(getattr(result, name)) for name in STORE_METRIC_DIRECTIONS
        }
        entries[key] = (f"{result.spec.label()} [{key[:8]}]", metrics)
    return entries


def _bench_leaves(data: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a benchmark record, keyed by dotted path."""
    leaves: Dict[str, float] = {}
    if isinstance(data, Mapping):
        for name, value in data.items():
            path = f"{prefix}.{name}" if prefix else str(name)
            leaves.update(_bench_leaves(value, path))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        leaves[prefix] = float(data)
    return leaves


def _bench_direction(path: str) -> str:
    lowered = path.lower()
    # "overhead" wins over the generic "ratio" rule: an overhead_ratio is
    # a cost (lower is better), not a speedup-style ratio.
    if "overhead" in lowered:
        return "lower"
    # Rates must win over the "seconds" rule: "records_per_second" contains
    # "seconds" but more of it is better.
    if "per_second" in lowered or "throughput" in lowered:
        return "higher"
    if "speedup" in lowered or "ratio" in lowered:
        return "higher"
    if "seconds" in lowered or "bytes" in lowered:
        return "lower"
    return "none"


def compare_files(
    baseline: Union[str, Path],
    candidate: Union[str, Path],
    threshold: float = 0.05,
    metrics: Optional[Sequence[str]] = None,
) -> CompareReport:
    """Diff two result stores or two benchmark records.

    Both files must be the same kind (detected from content: JSONL records
    with ``key``/``result`` fields are stores, a single JSON object is a
    ``BENCH_*.json`` record).  Store comparisons pair points by spec
    content hash and compare the metrics in
    :data:`STORE_METRIC_DIRECTIONS` (or the ``metrics`` subset); benchmark
    comparisons pair numeric leaves by dotted path, inferring direction
    from the name (``*seconds``/``*bytes`` lower-better,
    ``*speedup``/``*ratio`` higher-better).  ``threshold`` is the relative
    change beyond which a direction-aware delta counts as a regression or
    improvement; a zero baseline going non-zero in the regressing
    direction always counts.
    """
    from repro.engine.store import store_exists

    baseline_path, candidate_path = Path(baseline), Path(candidate)
    for path in (baseline_path, candidate_path):
        if not store_exists(path):
            raise FileNotFoundError(f"no such file: {path}")
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    kinds = (_detect_kind(baseline_path), _detect_kind(candidate_path))
    if kinds[0] != kinds[1]:
        raise ValueError(
            f"cannot compare a {kinds[0]} file against a {kinds[1]} file "
            f"({baseline_path} vs {candidate_path})"
        )
    report = CompareReport(
        kind=kinds[0],
        baseline=str(baseline_path),
        candidate=str(candidate_path),
        threshold=threshold,
    )
    if report.kind == "store":
        _compare_stores(report, baseline_path, candidate_path, metrics)
    else:
        _compare_bench(report, baseline_path, candidate_path, metrics)
    return report


def _compare_stores(
    report: CompareReport,
    baseline_path: Path,
    candidate_path: Path,
    metrics: Optional[Sequence[str]],
) -> None:
    selected = list(metrics) if metrics else list(STORE_METRIC_DIRECTIONS)
    unknown = [metric for metric in selected if metric not in STORE_METRIC_DIRECTIONS]
    if unknown:
        # A typo here must not gate vacuously: an unknown metric would
        # simply compare nothing and report success.
        raise ValueError(
            f"unknown store metric(s): {', '.join(unknown)} "
            f"(expected: {', '.join(STORE_METRIC_DIRECTIONS)})"
        )
    baseline_entries = _store_entries(baseline_path)
    candidate_entries = _store_entries(candidate_path)
    report.only_baseline = len(set(baseline_entries) - set(candidate_entries))
    report.only_candidate = len(set(candidate_entries) - set(baseline_entries))
    for key, (label, baseline_metrics) in baseline_entries.items():
        if key not in candidate_entries:
            continue
        _label, candidate_metrics = candidate_entries[key]
        report.compared += 1
        for metric in selected:
            if metric not in baseline_metrics or metric not in candidate_metrics:
                continue
            report.entries.append(
                ComparedMetric(
                    label=label,
                    metric=metric,
                    baseline=baseline_metrics[metric],
                    candidate=candidate_metrics[metric],
                    direction=STORE_METRIC_DIRECTIONS.get(metric, "none"),
                    threshold=report.threshold,
                )
            )


def _compare_bench(
    report: CompareReport,
    baseline_path: Path,
    candidate_path: Path,
    metrics: Optional[Sequence[str]],
) -> None:
    with baseline_path.open("r", encoding="utf-8") as handle:
        baseline_leaves = _bench_leaves(json.load(handle))
    with candidate_path.open("r", encoding="utf-8") as handle:
        candidate_leaves = _bench_leaves(json.load(handle))
    if metrics:
        unfiltered = bool(baseline_leaves or candidate_leaves)
        baseline_leaves = {
            path: value
            for path, value in baseline_leaves.items()
            if any(wanted in path for wanted in metrics)
        }
        candidate_leaves = {
            path: value
            for path, value in candidate_leaves.items()
            if any(wanted in path for wanted in metrics)
        }
        if unfiltered and not baseline_leaves and not candidate_leaves:
            # Nothing matched: gating would pass vacuously on a typo.
            raise ValueError(
                f"no benchmark metrics match {', '.join(metrics)!s} "
                f"in {baseline_path} or {candidate_path}"
            )
    report.only_baseline = len(set(baseline_leaves) - set(candidate_leaves))
    report.only_candidate = len(set(candidate_leaves) - set(baseline_leaves))
    for path, baseline_value in baseline_leaves.items():
        if path not in candidate_leaves:
            continue
        report.compared += 1
        report.entries.append(
            ComparedMetric(
                label=path,
                metric=path.rsplit(".", 1)[-1],
                baseline=baseline_value,
                candidate=candidate_leaves[path],
                direction=_bench_direction(path),
                threshold=report.threshold,
            )
        )
