"""Sweep progress: the live monitor and the throttled renderer.

Pool workers cannot print progress themselves (their stderr interleaves),
so the pool runner (:class:`~repro.engine.runner.ParallelRunner`) reports
for them.  It hands each worker one point at a time over the worker's own
pipe, so its own exchanges say everything progress needs: when a worker
was spawned, which point it holds, when that point came back and when the
worker died.

:class:`SweepMonitor` folds those exchanges (plus the runner's completion
bookkeeping) into per-worker rows — the point a worker holds, the points
it finished and the age of the runner's last exchange with it, so a
stalled point shows as a growing age — an overall points-per-second rate
and an ETA.  :class:`ProgressRenderer` turns a monitor into terminal
output: a single ``\\r``-rewritten bar when stderr is a TTY, plain
throttled lines when it is not (CI logs), nothing at all under
``--quiet``.  Rendering is throttled so a 10^5-point sweep costs dozens
of lines, not 10^5.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, IO, List, Optional

__all__ = [
    "SweepMonitor",
    "ProgressRenderer",
    "format_progress_line",
    "format_eta",
]


class _WorkerState:
    __slots__ = ("pid", "last_seen", "current_label", "points_done")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.last_seen = time.time()
        self.current_label = ""
        self.points_done = 0


class SweepMonitor:
    """Aggregated live view of one sweep: counts, rate, ETA, worker health."""

    def __init__(self, total: int = 0) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.simulated = 0
        self.failed = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._workers: Dict[int, _WorkerState] = {}

    # -- feeding -------------------------------------------------------------
    def begin(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.simulated = 0
        self.failed = 0
        self.started_at = time.time()
        self.finished_at = None
        self._workers.clear()

    # The pool runner's exchanges with its workers.
    def _exchange(self, pid: int) -> _WorkerState:
        state = self._workers.get(pid)
        if state is None:
            state = self._workers[pid] = _WorkerState(pid)
        state.last_seen = time.time()
        return state

    def worker_spawned(self, pid: int) -> None:
        """A worker process started: its row appears."""
        self._exchange(pid)

    def point_sent(self, pid: int, label: str) -> None:
        """The runner handed worker ``pid`` the point ``label``."""
        self._exchange(pid).current_label = label

    def point_returned(self, pid: int) -> None:
        """Worker ``pid`` sent back the outcome of the point it held."""
        state = self._exchange(pid)
        state.current_label = ""
        state.points_done += 1

    def worker_died(self, pid: int) -> None:
        """Worker ``pid`` died; the point it held is no longer running."""
        state = self._workers.get(pid)
        if state is not None:
            state.current_label = ""

    def point_finished(self, event: str) -> None:
        """Count one completed point; ``event`` is the runner's progress
        kind (``cached`` / ``simulated`` / ``failed``)."""
        if self.started_at is None:
            self.started_at = time.time()
        self.done += 1
        if event == "cached":
            self.cached += 1
        elif event == "failed":
            self.failed += 1
        else:
            self.simulated += 1

    def finish(self) -> None:
        self.finished_at = time.time()

    # -- derived -------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.time()
        return max(0.0, end - self.started_at)

    @property
    def points_per_second(self) -> float:
        elapsed = self.elapsed
        if elapsed <= 0.0:
            return 0.0
        return self.done / elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Seconds until completion at the current rate, if estimable."""
        rate = self.points_per_second
        if rate <= 0.0 or self.total <= 0:
            return None
        remaining = max(0, self.total - self.done)
        return remaining / rate

    def worker_count(self) -> int:
        return len(self._workers)

    def workers(self) -> List[Dict[str, object]]:
        """Per-worker health rows, oldest pid first."""
        now = time.time()
        rows = []
        for pid in sorted(self._workers):
            state = self._workers[pid]
            rows.append(
                {
                    "pid": pid,
                    "last_seen_age": max(0.0, now - state.last_seen),
                    "current": state.current_label,
                    "points_done": state.points_done,
                }
            )
        return rows

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable summary (for ``--metrics-out`` dumps)."""
        return {
            "total": self.total,
            "done": self.done,
            "cached": self.cached,
            "simulated": self.simulated,
            "failed": self.failed,
            "elapsed_seconds": self.elapsed,
            "points_per_second": self.points_per_second,
            "workers": self.workers(),
        }


def format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}:{(seconds % 3600) // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


def format_progress_line(monitor: SweepMonitor, width: int = 28) -> str:
    """The single-line sweep progress bar (pure; testable without a TTY)."""
    total = max(monitor.total, 1)
    fraction = min(1.0, monitor.done / total)
    filled = int(round(fraction * width))
    bar = "#" * filled + "-" * (width - filled)
    parts = [
        f"[{bar}] {monitor.done}/{monitor.total}",
        f"{fraction * 100:5.1f}%",
        f"{monitor.points_per_second:.1f} pt/s",
        f"eta {format_eta(monitor.eta_seconds)}",
    ]
    if monitor.cached:
        parts.append(f"{monitor.cached} cached")
    if monitor.failed:
        parts.append(f"{monitor.failed} FAILED")
    if monitor.worker_count():
        parts.append(f"{monitor.worker_count()} workers")
    return " | ".join(parts)


class ProgressRenderer:
    """Throttled terminal rendering of a :class:`SweepMonitor`.

    On a TTY the line is rewritten in place with ``\\r`` at most every
    ``tty_interval`` seconds; on a plain stream (CI logs, redirects) a
    normal line is printed at most every ``plain_interval`` seconds so
    logs stay readable.  ``force_tty`` pins the mode for tests.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        tty_interval: float = 0.1,
        plain_interval: float = 2.0,
        force_tty: Optional[bool] = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if force_tty is not None:
            self._is_tty = force_tty
        else:
            self._is_tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._interval = tty_interval if self._is_tty else plain_interval
        self._last_render = 0.0
        self._last_line_width = 0
        self.renders = 0

    @property
    def is_tty(self) -> bool:
        return self._is_tty

    def update(self, monitor: SweepMonitor, force: bool = False) -> bool:
        """Render if the throttle window has passed; returns whether it did."""
        now = time.time()
        if not force and (now - self._last_render) < self._interval:
            return False
        self._last_render = now
        line = format_progress_line(monitor)
        if self._is_tty:
            padding = " " * max(0, self._last_line_width - len(line))
            self._stream.write("\r" + line + padding)
            self._last_line_width = len(line)
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
        self.renders += 1
        return True

    def finish(self, monitor: SweepMonitor) -> None:
        """Final render plus the newline that releases a TTY's rewritten line."""
        self.update(monitor, force=True)
        if self._is_tty:
            self._stream.write("\n")
            self._stream.flush()
