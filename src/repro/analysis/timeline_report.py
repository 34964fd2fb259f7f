"""Aggregation and rendering of stored counter timelines.

One stored :class:`~repro.obs.timeline.Timeline` renders itself
(:meth:`~repro.obs.timeline.Timeline.render`); this module handles the
*many-timeline* case ``repro-run report --timeline`` hits — every point of
an experiment carries its own timeline, usually with different sample
counts (workloads warm up at different speeds), so the timelines are first
**downsampled onto a common normalized-time axis** (``buckets`` evenly
split progress buckets) and then reduced per (channel, bucket) through a
:class:`~repro.analysis.frame.SweepFrame` into a mean/p95 envelope: the
mean is the typical trajectory, the p95 the excursion boundary across the
sweep's points.

Channels aggregate over their :meth:`~repro.obs.timeline.Timeline.
display_series` shape — cumulative counters as per-interval rates, vector
channels collapsed — so the envelope of a channel answers the same
question as its single-timeline sparkline.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.frame import SweepFrame
from repro.obs.timeline import (
    CHANNEL_NAMES,
    Timeline,
    sparkline,
    unknown_channels_message,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "aggregate_timelines",
    "render_timelines",
    "timelines_to_csv",
    "timelines_to_json",
]

#: Normalized-time buckets the envelope aggregation downsamples onto.
DEFAULT_BUCKETS = 32

#: A labelled stored timeline: (point label, timeline).
LabeledTimeline = Tuple[str, Timeline]


def _resolve_channels(
    timelines: Sequence[LabeledTimeline], channels: Optional[Sequence[str]]
) -> List[str]:
    """Channels to report, validated; declaration order when defaulted."""
    if channels is not None:
        message = unknown_channels_message(channels)
        if message is not None:
            raise ValueError(message)
        return list(channels)
    active: List[str] = []
    for name in CHANNEL_NAMES:
        if any(name in timeline.channel_names() for _label, timeline in timelines):
            active.append(name)
    return active


def _bucket_records(
    timelines: Sequence[LabeledTimeline],
    channels: Sequence[str],
    buckets: int,
) -> Iterator[Dict[str, object]]:
    """Flat (channel, bucket, value) records feeding the SweepFrame.

    Each timeline's samples map onto ``buckets`` by *normalized* position
    (sample i of n lands in bucket ``i * buckets // n``), so timelines
    with different sample counts contribute to the same progress axis.
    """
    for _label, timeline in timelines:
        for name in channels:
            if name not in timeline.channel_names():
                continue
            series = timeline.display_series(name)
            n = series.size
            if n == 0:
                continue
            positions = (np.arange(n) * buckets) // n
            for bucket, value in zip(positions.tolist(), series.tolist()):
                yield {"channel": name, "bucket": bucket, "value": value}


def aggregate_timelines(
    timelines: Sequence[LabeledTimeline],
    channels: Optional[Sequence[str]] = None,
    buckets: int = DEFAULT_BUCKETS,
) -> SweepFrame:
    """Mean/p95 envelope of many timelines on a normalized-time axis.

    Returns a :class:`SweepFrame` grouped by ``(channel, bucket)`` with
    ``mean``, ``p95`` and ``n`` (contributing samples) columns, rows in
    channel-declaration then bucket order.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    names = _resolve_channels(timelines, channels)
    frame = SweepFrame.aggregate(
        _bucket_records(timelines, names, buckets),
        group_by=("channel", "bucket"),
        metrics={
            "mean": ("value", "mean"),
            "p95": ("value", "p95"),
            "n": ("value", "count"),
        },
    )
    # _bucket_records iterates per timeline; re-sort to the canonical
    # (channel declaration, bucket) order so output is stable regardless
    # of which point happened to sample a bucket first.
    order = {name: index for index, name in enumerate(names)}
    rows = sorted(frame.rows(), key=lambda row: (order[row["channel"]], row["bucket"]))
    return SweepFrame(rows, group_by=("channel", "bucket"))


def _envelope_rows(
    frame: SweepFrame, width: int
) -> List[Tuple[str, str, str, str, str, str]]:
    by_channel: Dict[str, List[Dict[str, object]]] = {}
    for row in frame:
        by_channel.setdefault(str(row["channel"]), []).append(row)
    rendered = []
    for name, rows in by_channel.items():
        means = [float(row["mean"]) for row in rows]
        p95s = [float(row["p95"]) for row in rows]
        rendered.append(
            (
                name,
                str(len(rows)),
                f"{min(means):.4g}",
                f"{max(p95s):.4g}",
                sparkline(means, width=width),
                sparkline(p95s, width=width),
            )
        )
    return rendered


def render_timelines(
    timelines: Sequence[LabeledTimeline],
    channels: Optional[Sequence[str]] = None,
    buckets: int = DEFAULT_BUCKETS,
    width: int = 48,
    title: str = "",
) -> str:
    """ASCII report over stored timelines.

    A single timeline renders directly (true sample axis, full channel
    table); several render as the mean/p95 envelope over normalized time,
    preceded by the contributing point labels.
    """
    if not timelines:
        return "no stored timelines"
    if len(timelines) == 1:
        label, timeline = timelines[0]
        names = _resolve_channels(timelines, channels)
        header = title or f"Timeline: {label}"
        return f"{header}\n{timeline.render(names, width=width)}"
    frame = aggregate_timelines(timelines, channels=channels, buckets=buckets)
    lines = [title or f"Timeline envelope over {len(timelines)} points"]
    lines.extend(f"  - {label}" for label, _timeline in timelines)
    rows = _envelope_rows(frame, width)
    headers = ("channel", "buckets", "min(mean)", "max(p95)", "mean", "p95")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(4)
    ]
    lines.append(
        "  ".join(headers[i].ljust(widths[i]) for i in range(4))
        + "  " + headers[4].ljust(width) + "  " + headers[5]
    )
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(4))
            + "  " + row[4].ljust(width) + "  " + row[5]
        )
    return "\n".join(lines)


def timelines_to_json(
    timelines: Sequence[LabeledTimeline],
    channels: Optional[Sequence[str]] = None,
    buckets: int = DEFAULT_BUCKETS,
    indent: Optional[int] = 2,
) -> str:
    """JSON report: every point's full timeline plus the envelope.

    Channel value lists come from :meth:`Timeline.to_json_dict`, so the
    schema of each point matches the golden-pinned single-timeline form.
    """
    names = _resolve_channels(timelines, channels)
    points = []
    for label, timeline in timelines:
        payload = timeline.to_json_dict()
        payload["channels"] = {
            name: data
            for name, data in payload["channels"].items()
            if name in names
        }
        points.append({"label": label, **payload})
    document: Dict[str, object] = {"points": points}
    if len(timelines) > 1:
        envelope = aggregate_timelines(timelines, channels=names, buckets=buckets)
        document["envelope"] = {
            "buckets": buckets,
            "rows": envelope.rows(),
        }
    return json.dumps(document, indent=indent)


def timelines_to_csv(
    timelines: Sequence[LabeledTimeline],
    channels: Optional[Sequence[str]] = None,
) -> str:
    """Tidy CSV over stored timelines: the single-timeline layout
    (``channel,lane,sample,accesses,value``) with a leading ``point``
    label column."""
    names = _resolve_channels(timelines, channels)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["point", "channel", "lane", "sample", "accesses", "value"])
    for label, timeline in timelines:
        for name in names:
            if name not in timeline.channel_names():
                continue
            cadence = timeline.channel_cadence(name)
            values = timeline.channel(name)
            if values.ndim == 1:
                values = values.reshape(-1, 1)
            for index, row in enumerate(values.tolist()):
                accesses = str((index + 1) * cadence)
                for lane, value in enumerate(row):
                    writer.writerow([label, name, lane, index, accesses, repr(value)])
    return buffer.getvalue()
