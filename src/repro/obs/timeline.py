"""Interval-sampled counter timelines for the simulated machine.

The experiments report end-of-run aggregates, but the paper's story is
dynamic — displacement chains lengthen as occupancy climbs, forced
invalidations appear past the provisioning knee.  A :class:`Timeline` is
the simulated machine's "hardware performance counter" file: every N
*simulated* accesses the :class:`~repro.coherence.simulator.TraceSimulator`
samples a fixed set of channels (per-bank directory occupancy, cumulative
forced invalidations, displacement-attempt totals and chain-length
histogram deltas, stash size, per-level cache hit rate, interconnect
traffic) into growable numpy columns.

Two cadences share one object:

* the **occupancy channel** is always on and pinned to the simulator's
  ``occupancy_sample_interval`` — it *is* the store of what used to be the
  ad-hoc ``occupancy_samples: List[float]``, so ``average_occupancy``
  keeps its exact arithmetic;
* every **other channel** samples at ``timeline_interval`` and only
  exists when the timeline is *enabled* (``RunSpec.timeline_interval``) —
  off by default, and sampling happens at chunk-boundary sub-slice cuts
  only, so wherever the chunks are cut the drain feeds the timeline
  identically and results stay bit-identical with the timeline on or off.

Storage is columnar and quantized but **lossless**: integer channels are
delta-encoded and narrowed to the smallest width that holds the deltas,
float channels drop to ``float32`` only when the round-trip is exact.
:func:`save_timeline` / :func:`load_timeline` persist the encoded columns
as an ``.npz`` sidecar next to the result store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import gauge as _obs_gauge

__all__ = [
    "ATTEMPT_CHAIN_BINS",
    "CHANNEL_NAMES",
    "ChannelSpec",
    "Timeline",
    "load_timeline",
    "save_timeline",
    "sparkline",
    "unknown_channels_message",
]

#: File-format tag written into every persisted timeline.
SCHEMA = "repro-timeline/1"

#: Chain-length histogram bins: 1, 2, 3, 4 and 5+ insertion attempts
#: (matching the paper's Figure 11 buckets).
ATTEMPT_CHAIN_BINS = 5

#: Sentinel widths resolved at :class:`Timeline` construction time.
_WIDTH_BANKS = -1


@dataclass(frozen=True)
class ChannelSpec:
    """One timeline channel: name, storage dtype, semantics and shape.

    ``kind`` drives rendering and aggregation:

    * ``"gauge"`` — a point-in-time value (occupancy, stash size);
    * ``"cumulative"`` — a monotone counter since the last statistics
      reset (forced invalidations, traffic);
    * ``"delta"`` — per-interval increments (the chain-length histogram,
      differenced against the previous sample at collection time).

    ``cadence`` is ``"timeline"`` (``timeline_interval``) for every
    channel except the always-on legacy-cadence ``occupancy`` channel.
    """

    name: str
    dtype: str
    kind: str
    width: int
    help: str
    cadence: str = "timeline"


CHANNEL_SPECS: Sequence[ChannelSpec] = (
    ChannelSpec(
        "occupancy", "f8", "gauge", 1,
        "mean directory occupancy across banks (fraction of capacity)",
        cadence="occupancy",
    ),
    ChannelSpec(
        "occupancy_banks", "f8", "gauge", _WIDTH_BANKS,
        "per-bank directory occupancy (fraction of each slice's capacity)",
    ),
    ChannelSpec(
        "forced_invalidations", "i8", "cumulative", 1,
        "forced invalidations since the measurement started",
    ),
    ChannelSpec(
        "insertions", "i8", "cumulative", 1,
        "new directory entries inserted since the measurement started",
    ),
    ChannelSpec(
        "insertion_attempts", "i8", "cumulative", 1,
        "displacement attempts spent on insertions since the measurement started",
    ),
    ChannelSpec(
        "attempt_chains", "i8", "delta", ATTEMPT_CHAIN_BINS,
        "per-interval new insertions by chain length (bins 1,2,3,4,5+)",
    ),
    ChannelSpec(
        "stash_occupancy", "i8", "gauge", 1,
        "entries parked in overflow stashes, summed over banks",
    ),
    ChannelSpec(
        "tracked_hit_rate", "f8", "gauge", 1,
        "cumulative tracked-cache hit rate since the measurement started",
    ),
    ChannelSpec(
        "shared_l2_hit_rate", "f8", "gauge", 1,
        "cumulative shared-L2 hit rate (0 in Private-L2 configurations)",
    ),
    ChannelSpec(
        "total_messages", "i8", "cumulative", 1,
        "coherence messages since the measurement started",
    ),
    ChannelSpec(
        "traffic_bytes", "i8", "cumulative", 1,
        "interconnect bytes since the measurement started",
    ),
    ChannelSpec(
        "traffic_hops", "i8", "cumulative", 1,
        "interconnect hop count since the measurement started",
    ),
)

#: Valid ``--channel`` names, in declaration (and rendering) order.
CHANNEL_NAMES = tuple(spec.name for spec in CHANNEL_SPECS)

_SPECS_BY_NAME = {spec.name: spec for spec in CHANNEL_SPECS}

#: The scalar counters :meth:`TiledCMP.timeline_counters` must report,
#: i.e. every scalar channel except the occupancy-cadence one.
COUNTER_CHANNELS = tuple(
    spec.name
    for spec in CHANNEL_SPECS
    if spec.width == 1 and spec.cadence == "timeline"
)

#: Unicode blocks for :func:`sparkline`, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def unknown_channels_message(names: Optional[Sequence[str]]) -> Optional[str]:
    """Friendly error for unknown channel names (``None`` when all valid)."""
    if not names:
        return None
    unknown = [name for name in names if name not in CHANNEL_NAMES]
    if not unknown:
        return None
    return (
        f"unknown channel(s): {', '.join(unknown)} "
        f"(expected: {', '.join(CHANNEL_NAMES)})"
    )


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render ``values`` as a fixed-width block-character sparkline.

    Longer series are mean-downsampled into ``width`` buckets; shorter
    ones print one block per value.  A flat series renders as the lowest
    block so "nothing happened" and "something happened" stay visually
    distinct.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return ""
    data = data[np.isfinite(data)]
    if data.size == 0:
        return ""
    if data.size > width:
        data = _downsample_mean(data, width)
    low = float(data.min())
    high = float(data.max())
    if high <= low:
        return _SPARK_BLOCKS[0] * data.size
    scaled = (data - low) / (high - low) * (len(_SPARK_BLOCKS) - 1)
    return "".join(_SPARK_BLOCKS[int(round(v))] for v in scaled)


def _downsample_mean(values: np.ndarray, buckets: int) -> np.ndarray:
    """Mean-reduce a 1-D series into ``buckets`` evenly split buckets."""
    edges = np.linspace(0, values.size, buckets + 1).astype(np.int64)
    return np.array(
        [
            values[start:stop].mean() if stop > start else values[min(start, values.size - 1)]
            for start, stop in zip(edges[:-1], edges[1:])
        ],
        dtype=np.float64,
    )


class _Column:
    """One growable numpy column (capacity-doubling append).

    Vector channels stay two-dimensional even at width 1 (a single-bank
    ``occupancy_banks``), so ``append`` always takes the same shape the
    system hooks produce.
    """

    __slots__ = ("spec", "width", "_buffer", "_length")

    def __init__(self, spec: ChannelSpec, width: int) -> None:
        self.spec = spec
        self.width = width
        shape = (16,) if spec.width == 1 else (16, width)
        self._buffer = np.zeros(shape, dtype=np.dtype(spec.dtype))
        self._length = 0

    def append(self, value) -> None:
        if self._length == self._buffer.shape[0]:
            self._buffer = np.concatenate([self._buffer, np.zeros_like(self._buffer)])
        self._buffer[self._length] = value
        self._length += 1

    def values(self) -> np.ndarray:
        """The filled prefix (a view; copy before mutating)."""
        return self._buffer[: self._length]

    def __len__(self) -> int:
        return self._length


class Timeline:
    """Interval-sampled counter columns for one simulation run.

    Parameters
    ----------
    occupancy_interval:
        Cadence (measured accesses) of the always-on occupancy channel.
    interval:
        Cadence of every other channel; ``None`` leaves the timeline
        *disabled* — only the occupancy channel collects, which is the
        default (and free) configuration.
    banks:
        Directory-slice count; the width of ``occupancy_banks``.
    """

    def __init__(
        self,
        occupancy_interval: int,
        interval: Optional[int] = None,
        banks: int = 1,
    ) -> None:
        if occupancy_interval <= 0:
            raise ValueError("occupancy_interval must be positive")
        if interval is not None and interval <= 0:
            raise ValueError("interval must be positive")
        if banks <= 0:
            raise ValueError("banks must be positive")
        self.occupancy_interval = int(occupancy_interval)
        self.interval = int(interval) if interval is not None else None
        self.banks = int(banks)
        self._columns: Dict[str, _Column] = {}
        for spec in CHANNEL_SPECS:
            if spec.cadence != "occupancy" and interval is None:
                continue
            width = self.banks if spec.width == _WIDTH_BANKS else spec.width
            self._columns[spec.name] = _Column(spec, width)
        self._chain_base = [0] * ATTEMPT_CHAIN_BINS

    # -- collection (hot path; called at sub-slice boundaries only) ----------
    @property
    def enabled(self) -> bool:
        """Whether the full channel set collects (``interval`` was given)."""
        return self.interval is not None

    def record_occupancy(self, value: float) -> None:
        self._columns["occupancy"].append(value)

    def sample(self, system) -> None:
        """Take one full-channel sample from a live ``TiledCMP``.

        Reads only non-mutating accessors (``Directory.occupancy`` rather
        than ``sample_occupancy``), so sampling never perturbs the
        statistics the run reports.
        """
        columns = self._columns
        counters = system.timeline_counters()
        for name in COUNTER_CHANNELS:
            columns[name].append(counters[name])
        columns["occupancy_banks"].append(system.bank_occupancies())
        chains = system.attempt_chain_bins(ATTEMPT_CHAIN_BINS)
        base = self._chain_base
        columns["attempt_chains"].append(
            [current - previous for current, previous in zip(chains, base)]
        )
        self._chain_base = chains

    # -- access --------------------------------------------------------------
    def channel_names(self) -> List[str]:
        """Active channels, in declaration order."""
        return [spec.name for spec in CHANNEL_SPECS if spec.name in self._columns]

    def channel(self, name: str) -> np.ndarray:
        """Samples of ``name`` — shape ``(n,)`` or ``(n, width)``."""
        column = self._columns.get(name)
        if column is None:
            message = unknown_channels_message([name])
            if message is not None:
                raise KeyError(message)
            raise KeyError(
                f"channel {name!r} was not collected (timeline disabled; "
                f"set timeline_interval to record it)"
            )
        return column.values()

    def channel_cadence(self, name: str) -> Optional[int]:
        """Accesses between samples of ``name``."""
        if _SPECS_BY_NAME[name].cadence == "occupancy":
            return self.occupancy_interval
        return self.interval

    def occupancy_list(self) -> List[float]:
        """The occupancy channel as plain Python floats (legacy shape)."""
        return self._columns["occupancy"].values().tolist()

    def num_samples(self, name: str) -> int:
        return len(self.channel(name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        if (
            self.occupancy_interval != other.occupancy_interval
            or self.interval != other.interval
            or self.banks != other.banks
            or self.channel_names() != other.channel_names()
        ):
            return False
        return all(
            np.array_equal(self.channel(name), other.channel(name))
            for name in self.channel_names()
        )

    __hash__ = None  # mutable container

    # -- transport (worker -> parent, via pickle) ----------------------------
    def to_payload(self) -> Dict[str, object]:
        """Plain-dict form that crosses process boundaries via pickle."""
        return {
            "schema": SCHEMA,
            "occupancy_interval": self.occupancy_interval,
            "interval": self.interval,
            "banks": self.banks,
            "columns": {
                name: np.array(self._columns[name].values())
                for name in self.channel_names()
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Timeline":
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported timeline payload schema {payload.get('schema')!r}"
            )
        timeline = cls(
            occupancy_interval=payload["occupancy_interval"],
            interval=payload["interval"],
            banks=payload["banks"],
        )
        for name, values in payload["columns"].items():
            column = timeline._columns.get(name)
            if column is None:
                continue  # tolerate channels from a newer writer
            values = np.asarray(values, dtype=column._buffer.dtype)
            if len(values):
                column._buffer = np.array(values)
                column._length = len(values)
        return timeline

    # -- gauges (Prometheus exposition) --------------------------------------
    def publish_gauges(self) -> None:
        """Set ``timeline.last.<channel>`` gauges to each scalar channel's
        final sample.  Free no-ops unless telemetry is enabled; the gauges
        then flow into ``--metrics-out`` snapshots and
        :func:`repro.obs.export.to_prometheus_text`."""
        for name in self.channel_names():
            column = self._columns[name]
            if _SPECS_BY_NAME[name].width != 1 or not len(column):
                continue
            _obs_gauge(
                f"timeline.last.{name}", help=_SPECS_BY_NAME[name].help
            ).set(float(column.values()[-1]))

    # -- rendering / export --------------------------------------------------
    def display_series(self, name: str) -> np.ndarray:
        """The 1-D series a channel renders (and aggregates) as.

        Vector channels collapse: per-bank occupancy to the bank mean,
        the chain histogram to total new insertions per interval.
        Cumulative counters render their per-interval deltas (the rate
        shape is the story; a monotone ramp is not).
        """
        values = self.channel(name).astype(np.float64)
        spec = _SPECS_BY_NAME[name]
        if values.ndim > 1:
            values = values.mean(axis=1) if spec.kind == "gauge" else values.sum(axis=1)
        if spec.kind == "cumulative" and values.size:
            values = np.diff(values, prepend=0.0)
        return values

    def render(
        self, channels: Optional[Sequence[str]] = None, width: int = 48
    ) -> str:
        """ASCII sparkline table over ``channels`` (default: all active)."""
        names = list(channels) if channels is not None else self.channel_names()
        message = unknown_channels_message(names)
        if message is not None:
            raise ValueError(message)
        rows = []
        for name in names:
            if name not in self._columns:
                rows.append((name, 0, "", "", "", "(not collected)"))
                continue
            series = self.display_series(name)
            if series.size == 0:
                rows.append((name, 0, "", "", "", "(no samples)"))
                continue
            suffix = "/interval" if _SPECS_BY_NAME[name].kind == "cumulative" else ""
            rows.append(
                (
                    f"{name}{suffix}",
                    series.size,
                    f"{series.min():.4g}",
                    f"{series.max():.4g}",
                    f"{series[-1]:.4g}",
                    sparkline(series, width=width),
                )
            )
        headers = ("channel", "n", "min", "max", "last", "timeline")
        widths = [
            max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows
            else len(str(headers[i]))
            for i in range(5)
        ]
        lines = [
            "  ".join(str(headers[i]).ljust(widths[i]) for i in range(5))
            + "  " + headers[5]
        ]
        for row in rows:
            lines.append(
                "  ".join(str(row[i]).ljust(widths[i]) for i in range(5))
                + "  " + row[5]
            )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        """Golden-pinned JSON schema of the full timeline."""
        channels: Dict[str, object] = {}
        for name in self.channel_names():
            spec = _SPECS_BY_NAME[name]
            channels[name] = {
                "kind": spec.kind,
                "interval": self.channel_cadence(name),
                "values": self.channel(name).tolist(),
            }
        return {
            "schema": SCHEMA,
            "mode": "interval",  # constant; earlier readers expect the field
            "occupancy_interval": self.occupancy_interval,
            "interval": self.interval,
            "banks": self.banks,
            "channels": channels,
        }

    def to_csv(self) -> str:
        """Tidy CSV: ``channel,lane,sample,accesses,value`` (one row per
        lane per sample)."""
        lines = ["channel,lane,sample,accesses,value"]
        for name in self.channel_names():
            cadence = self.channel_cadence(name)
            values = self.channel(name)
            if values.ndim == 1:
                values = values.reshape(-1, 1)
            for index, row in enumerate(values.tolist()):
                accesses = str((index + 1) * cadence)
                for lane, value in enumerate(row):
                    lines.append(f"{name},{lane},{index},{accesses},{value!r}")
        return "\n".join(lines) + "\n"


# -- lossless quantized storage ----------------------------------------------
def _encode_column(values: np.ndarray) -> "tuple":
    """``(encoded, codec)`` for one column; decoding is exact by design.

    Integers are delta-encoded along the sample axis (cumulative counters
    become small per-interval increments) and narrowed to the smallest
    signed width that holds every delta.  Floats narrow to ``float32``
    only when the widening round-trip reproduces every bit.
    """
    if values.dtype.kind == "f":
        if values.size and np.all(np.isfinite(values)):
            narrowed = values.astype(np.float32)
            if np.array_equal(narrowed.astype(np.float64), values):
                return narrowed, "f4"
        return values.astype(np.float64), "f8"
    deltas = np.diff(
        values, axis=0, prepend=np.zeros((1,) + values.shape[1:], dtype=values.dtype)
    )
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if deltas.size == 0 or (deltas.min() >= info.min and deltas.max() <= info.max):
            return deltas.astype(dtype), f"d{np.dtype(dtype).str[1:]}"
    return deltas, "di8"


def _decode_column(encoded: np.ndarray, codec: str) -> np.ndarray:
    if codec == "f8":
        return encoded.astype(np.float64)
    if codec == "f4":
        return encoded.astype(np.float64)
    if codec.startswith("d"):
        return np.cumsum(encoded.astype(np.int64), axis=0)
    raise ValueError(f"unknown timeline column codec {codec!r}")


def save_timeline(path: Union[str, Path], timeline: Timeline) -> int:
    """Persist ``timeline`` as a compressed ``.npz``; returns bytes written.

    Crash-safe: written to a sibling temp file and :func:`os.replace`\\ d
    into place, so a crash mid-write never leaves a truncated sidecar
    masquerading as a stored timeline.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "schema": SCHEMA,
        "occupancy_interval": timeline.occupancy_interval,
        "interval": timeline.interval,
        "banks": timeline.banks,
        "mode": "interval",  # constant; earlier readers expect the field
        "columns": {},
    }
    arrays: Dict[str, np.ndarray] = {}
    for name in timeline.channel_names():
        encoded, codec = _encode_column(timeline.channel(name))
        meta["columns"][name] = codec
        arrays[f"c_{name}"] = encoded
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path.stat().st_size


def load_timeline(path: Union[str, Path]) -> Timeline:
    """Load a :func:`save_timeline` sidecar back into a :class:`Timeline`."""
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("schema") != SCHEMA:
            raise ValueError(f"unsupported timeline schema {meta.get('schema')!r}")
        columns = {
            name: _decode_column(archive[f"c_{name}"], codec)
            for name, codec in meta["columns"].items()
        }
    return Timeline.from_payload(
        {
            "schema": SCHEMA,
            "occupancy_interval": meta["occupancy_interval"],
            "interval": meta["interval"],
            "banks": meta["banks"],
            "columns": columns,
        }
    )
