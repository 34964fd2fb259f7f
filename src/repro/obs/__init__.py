"""Telemetry for the reproduction: metrics, phase tracing, structured
logs, sweep progress, and exporters.

Everything here is **off by default and free when off**: instruments and
span factories are instance attributes rebound between shared no-ops and
real implementations, so disabled telemetry costs one no-op call at
chunk/phase granularity and nothing per memory access (DESIGN.md
"Observability" documents the layering and the overhead gate).

Typical use::

    from repro import obs

    obs.enable()                    # CLI does this when --metrics-out /
    ...run simulations...           # --log-level etc. are present
    obs.export.write_snapshot(path)

Worker processes replicate the parent's telemetry state through
:func:`state` / :func:`apply_state`, which ``ParallelRunner`` ships via
the pool initializer, and send their accumulated counters home with
their results (see :mod:`repro.engine.runner`).
"""

from __future__ import annotations

from typing import Dict

from repro.obs import export
from repro.obs.logging import (
    apply_logging_state,
    clear_context,
    current_context,
    get_logger,
    logging_state,
    set_context,
    setup_logging,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, counter, gauge, histogram
from repro.obs.progress import ProgressRenderer, SweepMonitor
from repro.obs.tracing import TRACER, Tracer, render_phase_breakdown, span

__all__ = [
    "REGISTRY",
    "TRACER",
    "MetricsRegistry",
    "Tracer",
    "SweepMonitor",
    "ProgressRenderer",
    "counter",
    "gauge",
    "histogram",
    "span",
    "render_phase_breakdown",
    "enable",
    "disable",
    "enabled",
    "reset",
    "state",
    "apply_state",
    "export",
    "setup_logging",
    "get_logger",
    "set_context",
    "clear_context",
    "current_context",
    "logging_state",
    "apply_logging_state",
]


def enable() -> None:
    """Turn on metrics and tracing in this process."""
    REGISTRY.enable()
    TRACER.enable()


def disable() -> None:
    """Swap every instrument and span factory back to the free no-ops."""
    REGISTRY.disable()
    TRACER.disable()


def enabled() -> bool:
    return REGISTRY.enabled or TRACER.enabled


def reset() -> None:
    """Zero accumulated values without changing enablement."""
    REGISTRY.reset()
    TRACER.reset()


def state() -> Dict[str, object]:
    """Picklable enablement state for replication into pool workers."""
    return {"metrics": REGISTRY.enabled, "tracing": TRACER.enabled}


def apply_state(state: Dict[str, object]) -> None:
    """Apply a parent process's :func:`state` in this (worker) process."""
    if state.get("metrics"):
        REGISTRY.enable()
    else:
        REGISTRY.disable()
    if state.get("tracing"):
        TRACER.enable()
    else:
        TRACER.disable()
