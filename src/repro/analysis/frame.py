"""Streaming aggregation of sweep results.

The reporting subsystem's core abstraction: a :class:`SweepFrame` is built
by *streaming* result records — :class:`~repro.engine.results.RunResult`
objects, store payload dicts, or plain mappings — through group-by
accumulators, so the frame keeps one small row per group, never the
record list.  It can pivot those rows into two-dimensional tables, render
them as ASCII, or serialize them as CSV/JSON.

This is the only aggregation path: a whole store reduces by feeding
:func:`~repro.engine.store.iter_store_records` through
:meth:`SweepFrame.aggregate`, and at a paper's 182 records nothing faster
would pay.  Reductions accumulate incrementally in record order, with
arithmetic identical to the naive ``sum(xs) / len(xs)`` /
:func:`repro.analysis.stats.geometric_mean` loops the experiment drivers
used before this module existed — the golden-pinned experiment tables
depend on that equivalence.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.tables import render_table

__all__ = [
    "REDUCTIONS",
    "Column",
    "PivotTable",
    "SweepFrame",
    "flatten_record",
]

#: Epsilon used by the streaming geometric mean; identical to the clamp in
#: :func:`repro.analysis.stats.geometric_mean`.
_GEOMEAN_EPSILON = 1e-12


# -- streaming reductions ----------------------------------------------------
class _Mean:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1

    def value(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Geomean:
    __slots__ = ("log_sum", "count")

    def __init__(self) -> None:
        self.log_sum = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("geometric mean requires non-negative values")
        self.log_sum += math.log(max(value, _GEOMEAN_EPSILON))
        self.count += 1

    def value(self) -> float:
        return math.exp(self.log_sum / self.count) if self.count else 0.0


class _Min:
    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current: Optional[float] = None

    def add(self, value: float) -> None:
        if self.current is None or value < self.current:
            self.current = value

    def value(self) -> float:
        return self.current if self.current is not None else 0.0


class _Max:
    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current: Optional[float] = None

    def add(self, value: float) -> None:
        if self.current is None or value > self.current:
            self.current = value

    def value(self) -> float:
        return self.current if self.current is not None else 0.0


class _Sum:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def add(self, value: float) -> None:
        self.total += value

    def value(self) -> float:
        return self.total


class _Quantile:
    """Exact quantile accumulator (retains the group's values).

    Unlike the O(1)-state reductions above this one holds every added
    value, so its memory is proportional to the group size — fine for the
    envelope aggregation of downsampled timelines it exists for (hundreds
    of values per bucket), not for unbounded streams.  Interpolation is
    linear between closest ranks, matching ``numpy.quantile``'s default.
    """

    __slots__ = ("values", "q")

    def __init__(self, q: float) -> None:
        self.values: List[float] = []
        self.q = q

    def add(self, value: float) -> None:
        self.values.append(value)

    def value(self) -> float:
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        position = self.q * (len(ordered) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return ordered[low]
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _p50() -> _Quantile:
    return _Quantile(0.50)


def _p95() -> _Quantile:
    return _Quantile(0.95)


class _Count:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: object) -> None:
        self.count += 1

    def value(self) -> int:
        return self.count


class _First:
    __slots__ = ("seen", "first")

    def __init__(self) -> None:
        self.seen = False
        self.first: object = None

    def add(self, value: object) -> None:
        if not self.seen:
            self.seen = True
            self.first = value

    def value(self) -> object:
        return self.first


class _Last:
    __slots__ = ("last",)

    def __init__(self) -> None:
        self.last: object = None

    def add(self, value: object) -> None:
        self.last = value

    def value(self) -> object:
        return self.last


#: Reduction name -> accumulator factory.
REDUCTIONS: Dict[str, Callable[[], object]] = {
    "mean": _Mean,
    "geomean": _Geomean,
    "min": _Min,
    "max": _Max,
    "sum": _Sum,
    "count": _Count,
    "first": _First,
    "last": _Last,
    "p50": _p50,
    "p95": _p95,
}


#: RunResult metric fields exposed by :func:`flatten_record`, in the order
#: flat reports print them.
METRIC_FIELDS: Tuple[str, ...] = (
    "accesses",
    "cache_hit_rate",
    "average_occupancy",
    "occupancy_vs_worst_case",
    "average_insertion_attempts",
    "forced_invalidation_rate",
    "insertions",
    "insertion_attempts",
    "forced_invalidations",
    "tracked_frames_total",
    "directory_capacity_total",
    "total_messages",
)


def flatten_record(record: object) -> Dict[str, object]:
    """Flatten one result record into a single-level field dict.

    Accepts a :class:`~repro.engine.results.RunResult` (or anything with a
    ``to_dict``), a store payload dict with a nested ``"spec"``, or an
    already-flat mapping.  Spec fields and metric fields land in one
    namespace — ``workload``, ``organization``, ``ways``, … alongside
    ``average_insertion_attempts``, ``elapsed_seconds`` & co.  The attempt
    histogram is dropped: it is not an aggregatable column.
    """
    if hasattr(record, "to_dict"):
        record = record.to_dict()
    if not isinstance(record, Mapping):
        raise TypeError(
            f"cannot flatten a {type(record).__name__} into a sweep record"
        )
    flat: Dict[str, object] = {}
    spec = record.get("spec")
    if isinstance(spec, Mapping):
        flat.update(spec)
    for name, value in record.items():
        if name in ("spec", "attempt_histogram"):
            continue
        flat[name] = value
    return flat


class Column:
    """One rendered column: header text, source field, cell formatter."""

    __slots__ = ("header", "field", "format")

    def __init__(
        self,
        header: str,
        field: Optional[str] = None,
        format: Callable[[object], str] = str,
    ) -> None:
        self.header = header
        self.field = field if field is not None else header
        self.format = format


class PivotTable:
    """A pivoted (index × column) grid of formatted cells."""

    def __init__(self, index_label: str, columns: List[str], rows: List[List[str]]):
        self.index_label = index_label
        self.columns = columns
        self.rows = rows

    @property
    def headers(self) -> List[str]:
        return [self.index_label] + self.columns

    def render(self, title: str = "") -> str:
        return render_table(self.headers, self.rows, title=title)


MetricSpec = Union[str, Tuple[str, str]]


class SweepFrame:
    """Grouped, reduced view of a stream of sweep records.

    Build with :meth:`aggregate` (streaming group-by/reduce) or
    :meth:`from_records` (one row per record, selected fields only); both
    consume their input lazily.  The frame itself is small — one dict per
    group — and knows how to pivot, render and serialize itself.
    """

    def __init__(self, rows: List[Dict[str, object]], group_by: Tuple[str, ...] = ()):
        self._rows = rows
        self.group_by = group_by

    # -- construction --------------------------------------------------------
    @classmethod
    def aggregate(
        cls,
        records: Iterable[object],
        group_by: Sequence[str],
        metrics: Mapping[str, MetricSpec],
        where: Optional[Callable[[Mapping[str, object]], bool]] = None,
    ) -> "SweepFrame":
        """Stream ``records`` through per-group reduction accumulators.

        ``group_by`` names the fields forming the group key (output row
        order is first-seen group order, so a deterministic record stream
        yields a deterministic frame).  ``metrics`` maps each output
        column to ``(source_field, reduction)`` — or just a reduction
        name, in which case the column name is also the source field.
        ``where`` filters flattened records before they reach any
        accumulator.
        """
        group_by = tuple(group_by)
        parsed: Dict[str, Tuple[str, str]] = {}
        for name, spec in metrics.items():
            if isinstance(spec, str):
                source, reduction = name, spec
            else:
                source, reduction = spec
            if reduction not in REDUCTIONS:
                raise ValueError(
                    f"unknown reduction {reduction!r} "
                    f"(expected one of: {', '.join(REDUCTIONS)})"
                )
            parsed[name] = (source, reduction)

        groups: Dict[Tuple[object, ...], Dict[str, object]] = {}
        order: List[Tuple[object, ...]] = []
        for record in records:
            flat = flatten_record(record)
            if where is not None and not where(flat):
                continue
            key = tuple(flat.get(field) for field in group_by)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = {
                    name: REDUCTIONS[reduction]()
                    for name, (_source, reduction) in parsed.items()
                }
                groups[key] = accumulators
                order.append(key)
            for name, (source, _reduction) in parsed.items():
                if source in flat:
                    accumulators[name].add(flat[source])

        rows: List[Dict[str, object]] = []
        for key in order:
            row: Dict[str, object] = dict(zip(group_by, key))
            for name, accumulator in groups[key].items():
                row[name] = accumulator.value()
            rows.append(row)
        return cls(rows, group_by=group_by)

    @classmethod
    def from_records(
        cls,
        records: Iterable[object],
        fields: Optional[Sequence[str]] = None,
        where: Optional[Callable[[Mapping[str, object]], bool]] = None,
    ) -> "SweepFrame":
        """One row per record, restricted to ``fields`` (all fields if None).

        Streaming in the sense that only the selected fields of each
        record are retained — the frame *is* the report, so its size is
        the size of the output, not of the raw records.
        """
        rows: List[Dict[str, object]] = []
        for record in records:
            flat = flatten_record(record)
            if where is not None and not where(flat):
                continue
            if fields is None:
                rows.append(flat)
            else:
                rows.append({field: flat.get(field) for field in fields})
        return cls(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, object]]) -> "SweepFrame":
        """Wrap pre-shaped rows (experiment result objects already reduced)."""
        return cls([dict(row) for row in rows])

    # -- access --------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        return [dict(row) for row in self._rows]

    def column(self, field: str) -> List[object]:
        return [row.get(field) for row in self._rows]

    def fields(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self._rows:
            for field in row:
                seen.setdefault(field, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    # -- shaping -------------------------------------------------------------
    def pivot(
        self,
        index: str,
        columns: str,
        value: str,
        index_label: Optional[str] = None,
        index_order: Optional[Sequence[object]] = None,
        column_order: Optional[Sequence[object]] = None,
        default: Optional[object] = None,
        fmt: Callable[[object], str] = str,
        missing: str = "-",
    ) -> PivotTable:
        """Pivot the frame into an (``index`` × ``columns``) grid.

        Cell values come from ``value``; absent combinations fall back to
        ``default`` (then formatted) or, when ``default`` is None, to the
        literal ``missing`` placeholder.  Row/column order is first-seen
        order unless pinned explicitly.
        """
        cells: Dict[Tuple[object, object], object] = {}
        index_seen: List[object] = []
        column_seen: List[object] = []
        for row in self._rows:
            row_key = row.get(index)
            column_key = row.get(columns)
            if row_key not in index_seen:
                index_seen.append(row_key)
            if column_key not in column_seen:
                column_seen.append(column_key)
            cells[(row_key, column_key)] = row.get(value)

        index_values = list(index_order) if index_order is not None else index_seen
        column_values = (
            list(column_order) if column_order is not None else column_seen
        )

        rendered: List[List[str]] = []
        for row_key in index_values:
            line: List[str] = [str(row_key)]
            for column_key in column_values:
                if (row_key, column_key) in cells:
                    line.append(fmt(cells[(row_key, column_key)]))
                elif default is not None:
                    line.append(fmt(default))
                else:
                    line.append(missing)
            rendered.append(line)
        return PivotTable(
            index_label=index_label if index_label is not None else index,
            columns=[str(column) for column in column_values],
            rows=rendered,
        )

    # -- output --------------------------------------------------------------
    def render(
        self,
        columns: Optional[Sequence[Column]] = None,
        title: str = "",
    ) -> str:
        """Render the frame as an aligned ASCII table."""
        if columns is None:
            columns = [Column(field) for field in self.fields()]
        headers = [column.header for column in columns]
        rows = [
            [column.format(row.get(column.field)) for column in columns]
            for row in self._rows
        ]
        return render_table(headers, rows, title=title)

    def to_csv(self, fields: Optional[Sequence[str]] = None) -> str:
        """Serialize as CSV (header row + one line per frame row)."""
        fields = list(fields) if fields is not None else self.fields()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        for row in self._rows:
            writer.writerow([row.get(field, "") for field in fields])
        return buffer.getvalue()

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize as JSON: ``{"group_by": [...], "rows": [...]}``."""
        return json.dumps(
            {"group_by": list(self.group_by), "rows": self._rows},
            indent=indent,
            sort_keys=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepFrame({len(self._rows)} rows, group_by={self.group_by!r})"
