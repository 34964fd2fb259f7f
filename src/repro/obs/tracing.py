"""Nestable phase-span timers producing per-run phase breakdowns.

A *span* wraps one phase of work in a ``with`` block::

    from repro.obs import TRACER

    with TRACER.span("drain_vector"):
        ...

Spans nest: a run's ``run_chunks`` span contains ``translate`` and
``drain_vector`` children, and the tracer keeps both the *total* time of
each phase and its *self* time (total minus time spent in child spans),
so the breakdown columns add up instead of double-counting.

Like :mod:`repro.obs.metrics`, the disabled path costs one no-op call:
``TRACER.span`` is an instance attribute rebound between a null factory
(returning one shared inert span) and the real factory.  Span granularity
is phases and chunks — hundreds of spans per simulation, never one per
memory access (see DESIGN.md "Observability").

The tracer is process-local; workers ship :meth:`Tracer.snapshot` dicts
home and the parent merges them with :meth:`Tracer.absorb`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.analysis.tables import render_table

__all__ = [
    "Tracer",
    "TRACER",
    "span",
    "render_phase_breakdown",
]


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live timed phase; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "_start", "_children_seconds")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self._children_seconds = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        elapsed = perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack
        # Exception safety: unwind past any children that were skipped by a
        # raise inside this span, so the stack always ends consistent.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1]._children_seconds += elapsed
        entry = tracer._totals.get(self.name)
        if entry is None:
            tracer._totals[self.name] = [
                1,
                elapsed,
                elapsed - self._children_seconds,
            ]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - self._children_seconds
        return False


def _span_null(_name: str) -> _NullSpan:
    return _NULL_SPAN


class Tracer:
    """Accumulates span timings per phase name.

    ``_totals`` maps phase name to a mutable ``[count, total_seconds,
    self_seconds]`` triple.  ``total_seconds`` includes child spans;
    ``self_seconds`` excludes them, so summing self times over all phases
    approximates wall time without double counting.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, List[float]] = {}
        self._stack: List[_Span] = []
        self._enabled = False
        self.span = _span_null

    def _span_real(self, name: str) -> _Span:
        return _Span(self, name)

    # -- enablement ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True
        self.span = self._span_real

    def disable(self) -> None:
        self._enabled = False
        self.span = _span_null

    def reset(self) -> None:
        """Drop accumulated timings (open spans, if any, are abandoned)."""
        self._totals.clear()
        self._stack.clear()

    # -- introspection -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently open spans (0 when quiescent)."""
        return len(self._stack)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{name: {count, total_seconds, self_seconds}}``."""
        return {
            name: {
                "count": int(entry[0]),
                "total_seconds": entry[1],
                "self_seconds": entry[2],
            }
            for name, entry in sorted(self._totals.items())
        }

    def snapshot(self) -> Dict[str, List[float]]:
        """JSON-serializable state for shipping across process boundaries."""
        return {name: list(entry) for name, entry in self._totals.items()}

    def absorb(self, snapshot: Dict[str, List[float]]) -> None:
        """Fold another process's :meth:`snapshot` into this tracer."""
        for name, incoming in snapshot.items():
            entry = self._totals.get(name)
            if entry is None:
                self._totals[name] = list(incoming)
            else:
                entry[0] += incoming[0]
                entry[1] += incoming[1]
                entry[2] += incoming[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self._enabled else "disabled"
        return f"Tracer({len(self._totals)} phases, {state})"


#: The process-wide tracer every subsystem times against.
TRACER = Tracer()


def span(name: str):
    """Open a span on the global tracer (module-level convenience)."""
    return TRACER.span(name)


def render_phase_breakdown(
    totals: Dict[str, Dict[str, float]], title: str = "Phase breakdown"
) -> str:
    """Render :meth:`Tracer.totals` output as an aligned ASCII table.

    Phases are sorted by descending self time — the row at the top is
    where the run actually spent its wall clock.  The ``share`` column is
    self time relative to the summed self time of all phases.
    """
    if not totals:
        return f"{title}: no spans recorded (telemetry disabled?)"
    total_self = sum(entry["self_seconds"] for entry in totals.values()) or 1.0
    rows = []
    ordered = sorted(
        totals.items(), key=lambda item: item[1]["self_seconds"], reverse=True
    )
    for name, entry in ordered:
        rows.append(
            [
                name,
                str(int(entry["count"])),
                f"{entry['total_seconds']:.3f}",
                f"{entry['self_seconds']:.3f}",
                f"{100.0 * entry['self_seconds'] / total_self:.1f}%",
            ]
        )
    return render_table(
        ["phase", "count", "total s", "self s", "share"], rows, title=title
    )
