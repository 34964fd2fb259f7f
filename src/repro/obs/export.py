"""Exporting telemetry snapshots: JSON dumps and Prometheus text format.

The JSON shape (schema ``repro-obs/1``) is what ``--metrics-out`` writes
and what EXPERIMENTS.md's dump-diffing workflow consumes::

    {
      "schema": "repro-obs/1",
      "meta": {...},                # run id, argv, anything the caller adds
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "phases": {"drain_vector": {"count": ..., "total_seconds": ...,
                                   "self_seconds": ...}, ...}
    }

The Prometheus rendering follows the text exposition format (``# HELP`` /
``# TYPE`` headers, ``_bucket{le=...}``/``_sum``/``_count`` series for
histograms, cumulative ``le`` buckets) so a dump can be pushed to a
gateway or scraped from a file without translation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    REGISTRY,
    format_bound,
)
from repro.obs.tracing import TRACER, Tracer

__all__ = [
    "SCHEMA",
    "snapshot",
    "write_snapshot",
    "to_prometheus_text",
]

SCHEMA = "repro-obs/1"


def snapshot(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One JSON-serializable document covering metrics and phase timings."""
    registry = registry if registry is not None else REGISTRY
    tracer = tracer if tracer is not None else TRACER
    document: Dict[str, object] = {"schema": SCHEMA}
    if meta:
        document["meta"] = dict(meta)
    document["metrics"] = registry.snapshot()
    document["phases"] = tracer.totals()
    return document


def write_snapshot(
    path: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write :func:`snapshot` to ``path`` as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = snapshot(registry=registry, tracer=tracer, meta=meta)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def _prom_name(name: str) -> str:
    """Dotted metric name to a Prometheus-legal one: ``sim.batch.chunks``
    becomes ``repro_sim_batch_chunks``."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name.replace(".", "_")
    )
    return f"repro_{cleaned}"


def _prom_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> str:
    """Render the registry (and phase timings) in Prometheus text format."""
    registry = registry if registry is not None else REGISTRY
    tracer = tracer if tracer is not None else TRACER
    lines = []
    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(instrument.value)}")
        else:
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(
                instrument.buckets + (float("inf"),), instrument.counts
            ):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{format_bound(bound)}"}} {cumulative}'
                )
            lines.append(f"{name}_sum {_prom_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
    phases = tracer.totals()
    if phases:
        base = "repro_phase_seconds"
        lines.append(f"# HELP {base} Cumulative time per traced phase.")
        lines.append(f"# TYPE {base} counter")
        for phase, entry in phases.items():
            lines.append(
                f'{base}{{phase="{phase}"}} {_prom_value(entry["total_seconds"])}'
            )
        lines.append(f"# TYPE {base.replace('seconds', 'count')} counter")
        for phase, entry in phases.items():
            lines.append(
                f'{base.replace("seconds", "count")}{{phase="{phase}"}} '
                f'{_prom_value(entry["count"])}'
            )
    return "\n".join(lines) + ("\n" if lines else "")
