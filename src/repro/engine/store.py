"""Content-addressed on-disk result store, backed by a columnar engine.

The public surface is unchanged from the original JSONL store — results
are keyed by the :meth:`RunSpec.key` content hash, ``get``/``put`` count
hits and misses, counter timelines live in ``.npz`` sidecars — but the
internals are now a small LSM-style storage engine:

* **WAL.** ``put`` appends one JSON line to the store path (the write-ahead
  log), exactly the old format plus a ``ts`` commit timestamp used for
  cross-writer last-wins ordering.  Appends are flushed immediately (a
  concurrent reader sees them) but fsynced in *groups* — the first write,
  then every :data:`DEFAULT_FSYNC_BATCH` records or
  :data:`DEFAULT_FSYNC_INTERVAL` seconds, whichever comes first — instead
  of once per record.  :meth:`ResultStore.flush` forces the sync point.
* **Segments.** Once the WAL holds :data:`DEFAULT_SEAL_THRESHOLD` records
  it is *sealed*: the records are packed through the columnar codec
  (:func:`repro.engine.results.encode_record_batch`) into immutable
  ``.npy`` segment files under ``<store>.segments/``, committed into
  ``MANIFEST.json``, and the WAL is truncated.  Each segment carries a
  small persisted key index, so a fresh open reads the manifest and the
  per-segment indexes — O(index), never the record payloads.
* **Multi-writer.** A store opened with a ``writer`` name appends to its
  own ``wal-<writer>.jsonl`` inside the segment directory and seals its
  own segments; the manifest merge runs under an ``flock`` so concurrent
  writers never lose each other's segments.  A fresh open discovers every
  writer's WAL by glob and resolves duplicate keys by commit timestamp.
* **Compaction.** :meth:`ResultStore.compact` folds last-wins duplicates.
  A store that never sealed compacts exactly as before (rewrite the JSONL
  in place, crash-safe via temp file + ``os.replace``); a sealed store
  folds every live record into one fresh segment and drops the dead ones.

Stores written by the previous JSONL-only engine load unchanged: their
lines simply have no ``ts`` and are ordered by position, and they never
had segments to begin with.  ``export_jsonl``/``import_jsonl`` (surfaced
as ``repro-run cache export``/``import``) translate any store back to
plain last-wins JSONL and validate records on the way in.

Counter timelines (:mod:`repro.obs.timeline`) are columnar numpy data, so
they never ride in the record payloads: a result carrying one also writes
a compact quantized ``.npz`` sidecar under ``<store>.timelines/<key>.npz``.
The spec key excludes ``timeline_interval``, so the record is shared
between timeline and non-timeline requests; :meth:`ResultStore.get`
reports a *miss* when the spec asks for a timeline the sidecar cannot
serve (absent, or sampled at a different cadence), which makes the runner
re-simulate exactly that point with collection enabled.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.engine.results import RunResult, decode_record_row, encode_record_batch
from repro.engine.segment import (
    MANIFEST_NAME,
    LoadedSegment,
    Manifest,
    SegmentMeta,
    load_manifest,
    merge_manifest,
    read_segment,
    read_segment_index,
    segment_file_names,
    write_segment,
)
from repro.engine.spec import RunSpec
from repro.obs.logging import get_logger
from repro.obs.metrics import counter as _obs_counter
from repro.obs.timeline import Timeline, load_timeline, save_timeline
from repro.obs.tracing import TRACER as _TRACER

try:  # pragma: no cover - posix-only locking, exercised on linux CI
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None

__all__ = [
    "CompactionReport",
    "ResultStore",
    "default_store_path",
    "iter_store_records",
    "iter_store_results",
    "load_store_columns",
    "segments_dir",
    "store_exists",
]

#: Environment variable overriding the default on-disk store location.
STORE_ENV_VAR = "REPRO_RESULT_STORE"

#: WAL records that trigger a seal into a columnar segment.
DEFAULT_SEAL_THRESHOLD = 4096
#: Group-commit fsync policy: sync after this many unsynced appends ...
DEFAULT_FSYNC_BATCH = 64
#: ... or this many seconds since the last sync, whichever comes first.
DEFAULT_FSYNC_INTERVAL = 0.05

_LOG = get_logger("repro.engine.store")

# Store-level telemetry: one bump per get/put/compact, with durable I/O
# (append + flush + group fsync, segment seals) timed under ``store_io``.
_STORE_HITS = _obs_counter("store.get.hits", help="result-store cache hits")
_STORE_MISSES = _obs_counter("store.get.misses", help="result-store cache misses")
_STORE_PUTS = _obs_counter("store.puts", help="results appended to the store")
_STORE_PUT_BYTES = _obs_counter(
    "store.put_bytes", help="bytes appended to the store (before fsync)"
)
_STORE_COMPACTIONS = _obs_counter(
    "store.compactions", help="store compaction passes"
)
_STORE_SEALS = _obs_counter(
    "store.seals", help="WAL batches sealed into columnar segments"
)
_STORE_MALFORMED = _obs_counter(
    "store.malformed", help="records dropped because their payload no longer decodes"
)

# Catalog entry kinds: where a live record's payload currently is.
_KIND_WAL = 0  # payload dict held in memory, backed by a WAL line
_KIND_SEG = 1  # payload lives in a sealed segment: data = (segment name, row)
_KIND_EXT = 2  # payload persisted elsewhere (a worker's WAL): in-memory only

#: Exceptions meaning "this payload no longer matches the RunResult schema".
_DECODE_ERRORS = (KeyError, TypeError, ValueError)


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`ResultStore.compact` pass recovered."""

    entries_kept: int
    lines_removed: int
    bytes_before: int
    bytes_after: int
    segments_before: int = 0
    segments_after: int = 0

    @property
    def bytes_saved(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    def __str__(self) -> str:
        base = (
            f"kept {self.entries_kept} entries, removed {self.lines_removed} "
            f"superseded records, saved {self.bytes_saved} bytes"
        )
        if self.segments_before or self.segments_after:
            base += (
                f" (folded {self.segments_before} segments "
                f"into {self.segments_after})"
            )
        return base


def default_store_path() -> Path:
    """The shared store location: ``$REPRO_RESULT_STORE`` or the user cache."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-cuckoo" / "results.jsonl"


def segments_dir(path: Union[str, Path]) -> Path:
    """Where a store at ``path`` keeps its segments and manifest."""
    path = Path(path)
    return path.with_name(path.name + ".segments")


@contextmanager
def _flock(handle) -> Iterator[None]:
    """Exclusive advisory lock on an open file, where the platform has one."""
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _parse_wal_line(line: bytes) -> Optional[Tuple[str, Optional[int], Dict[str, object]]]:
    """``(key, ts, payload)`` of one WAL line, or ``None`` if unusable.

    ``ts`` is ``None`` for lines written by the pre-engine store, which
    had no commit timestamp; callers substitute scan position so legacy
    records always order before (and among themselves, by) anything
    stamped with ``time_ns``.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line.decode("utf-8"))
        key = record["key"]
        payload = record["result"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
        return None
    ts = record.get("ts")
    if not isinstance(ts, int):
        ts = None
    return key, ts, payload


def _wal_paths(path: Path) -> List[Path]:
    """Every WAL file of the store at ``path``: the main one + per-writer."""
    paths = [path]
    segdir = segments_dir(path)
    if segdir.is_dir():
        paths.extend(sorted(segdir.glob("wal-*.jsonl")))
    return paths


def store_exists(path: Union[str, Path]) -> bool:
    """Whether anything of a store exists at ``path``.

    That is its main WAL, a segment manifest or any per-writer WAL: a
    store written only by pool workers holds nothing but
    ``<store>.segments/wal-<writer>.jsonl`` files.
    """
    path = Path(path)
    return (segments_dir(path) / MANIFEST_NAME).exists() or any(
        wal.exists() for wal in _wal_paths(path)
    )


def _scan_winners(
    path: Path,
) -> Tuple[Path, Manifest, Dict[str, Tuple[int, int, Tuple]]]:
    """Locate the winning record per key without touching any payload.

    Returns ``(segdir, manifest, winners)`` where each winner is
    ``(ts, ordinal, locator)`` — locator ``("seg", name, row)`` for
    segment-resident records (found via the persisted per-segment key
    index) or ``("wal", path, offset)`` for WAL lines.  Sorting winners by
    ``(ts, ordinal)`` gives commit order.
    """
    segdir = segments_dir(path)
    manifest = (
        load_manifest(segdir)
        if (segdir / MANIFEST_NAME).exists()
        else Manifest(segments=[])
    )
    winners: Dict[str, Tuple[int, int, Tuple]] = {}
    ordinal = 0
    # Segment indices are columnar already; the winner per key falls out
    # of one lexsort over (key, ts, ordinal) — after sorting, each key's
    # rows are contiguous in ascending commit order, so the last row of
    # every key group is its winner.  Only the winning rows (distinct
    # keys) round-trip through Python objects.
    seg_keys: List[np.ndarray] = []
    seg_ts: List[np.ndarray] = []
    seg_pos: List[np.ndarray] = []
    seg_rows: List[np.ndarray] = []
    for position, meta in enumerate(manifest.segments):
        keys, ts_arr = read_segment_index(segdir, meta)
        rows = len(keys)
        if rows:
            seg_keys.append(np.asarray(keys))
            seg_ts.append(np.asarray(ts_arr, dtype=np.int64))
            seg_pos.append(np.full(rows, position, dtype=np.int64))
            seg_rows.append(np.arange(rows, dtype=np.int64))
        ordinal += rows
    if seg_keys:
        all_keys = np.concatenate(seg_keys)
        all_ts = np.concatenate(seg_ts)
        all_pos = np.concatenate(seg_pos)
        all_rows = np.concatenate(seg_rows)
        # Global ordinal is the concatenation order (rows scan in
        # manifest order), so ties in ts resolve to the later segment row
        # exactly like the sequential scan did.
        order = np.lexsort((np.arange(ordinal), all_ts, all_keys))
        sorted_keys = all_keys[order]
        group_last = np.empty(ordinal, dtype=bool)
        group_last[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        group_last[-1] = True
        names = [meta.name for meta in manifest.segments]
        for winner in order[group_last].tolist():
            winners[str(all_keys[winner])] = (
                int(all_ts[winner]),
                winner,
                ("seg", names[all_pos[winner]], int(all_rows[winner])),
            )
    for wal_path in _wal_paths(path):
        if not wal_path.exists():
            continue
        offset = 0
        with wal_path.open("rb") as handle:
            for raw in handle:
                line_offset = offset
                offset += len(raw)
                parsed = _parse_wal_line(raw)
                if parsed is None:
                    continue
                key, ts, _payload = parsed
                stamp = (ordinal if ts is None else ts, ordinal)
                ordinal += 1
                if key not in winners or stamp > winners[key][:2]:
                    winners[key] = (*stamp, ("wal", wal_path, line_offset))
    return segdir, manifest, winners


def iter_store_records(
    path: Union[str, Path],
) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Stream the live ``(key, result)`` records of a store.

    Reload semantics match :class:`ResultStore`: the record with the
    greatest commit timestamp per key wins (for legacy stores, the last
    line), corrupt WAL lines are tolerated.  Records stream straight off
    the memory-mapped segment arrays and seeked WAL offsets — memory
    stays proportional to the number of distinct keys, never the sweep
    size.  Winners are yielded in commit order (for a single-writer
    store, write order), which aggregation downstream relies on for
    deterministic output.
    """
    path = Path(path)
    if not store_exists(path):
        return
    segdir, manifest, winners = _scan_winners(path)

    # Pass 2 — stream winners in commit order, opening each segment
    # (memory-mapped) and WAL file at most once.
    segments: Dict[str, LoadedSegment] = {}
    metas = {meta.name: meta for meta in manifest.segments}
    handles: Dict[Path, object] = {}
    try:
        for key, (_ts, _ordinal, locator) in sorted(
            winners.items(), key=lambda item: item[1][:2]
        ):
            if locator[0] == "seg":
                _kind, name, row = locator
                if name not in segments:
                    segments[name] = read_segment(segdir, metas[name])
                loaded = segments[name]
                _key, payload = decode_record_row(
                    loaded.main, loaded.hist, loaded.extras, row
                )
            else:
                _kind, wal_path, line_offset = locator
                if wal_path not in handles:
                    handles[wal_path] = wal_path.open("rb")
                handle = handles[wal_path]
                handle.seek(line_offset)
                payload = json.loads(handle.readline().decode("utf-8"))["result"]
            yield key, payload
    finally:
        for handle in handles.values():
            handle.close()


def load_store_columns(
    path: Union[str, Path], fields: Tuple[str, ...]
) -> Optional[Dict[str, np.ndarray]]:
    """The winning records of a store as flat column arrays, commit-ordered.

    This is the columnar fast path behind
    :meth:`repro.analysis.frame.SweepFrame.aggregate_columns`: segment
    rows are gathered straight off the memory-mapped arrays (no per-record
    dict decode), WAL-resident records are packed through the same codec,
    and each requested column comes back as one numpy array aligned across
    fields.  Returns ``None`` when the store cannot be served columnar —
    no records, a requested field the fixed schema does not carry, or any
    winning record living in a JSON extras side-channel — in which case
    callers fall back to the streaming reader.
    """
    path = Path(path)
    if not store_exists(path):
        return None
    segdir, manifest, winners = _scan_winners(path)
    if not winners:
        return None
    ordered = sorted(winners.values(), key=lambda winner: winner[:2])

    seg_rows: Dict[str, List[int]] = {}
    seg_positions: Dict[str, List[int]] = {}
    wal_lines: Dict[Path, List[Tuple[int, int]]] = {}
    for position, (_ts, _ordinal, locator) in enumerate(ordered):
        if locator[0] == "seg":
            seg_rows.setdefault(locator[1], []).append(locator[2])
            seg_positions.setdefault(locator[1], []).append(position)
        else:
            wal_lines.setdefault(locator[1], []).append((locator[2], position))

    chunks: Dict[str, List[np.ndarray]] = {field: [] for field in fields}
    order_chunks: List[np.ndarray] = []
    metas = {meta.name: meta for meta in manifest.segments}
    for meta in manifest.segments:
        rows = seg_rows.get(meta.name)
        if not rows:
            continue
        loaded = read_segment(segdir, metas[meta.name])
        if loaded.extras and any(row in loaded.extras for row in rows):
            return None
        names = loaded.main.dtype.names
        if any(field not in names for field in fields):
            return None
        take = np.asarray(rows, dtype=np.int64)
        sub = loaded.main[take]
        for field in fields:
            chunks[field].append(sub[field])
        order_chunks.append(np.asarray(seg_positions[meta.name], dtype=np.int64))

    wal_records: List[Tuple[str, int, Dict[str, object]]] = []
    wal_positions: List[int] = []
    for wal_path, locations in wal_lines.items():
        with wal_path.open("rb") as handle:
            for offset, position in locations:
                handle.seek(offset)
                parsed = _parse_wal_line(handle.readline())
                if parsed is None:  # pragma: no cover - raced truncation
                    return None
                key, ts, payload = parsed
                wal_records.append((key, 0 if ts is None else ts, payload))
                wal_positions.append(position)
    if wal_records:
        batch = encode_record_batch(wal_records)
        if batch.extras:
            return None
        names = batch.main.dtype.names
        if any(field not in names for field in fields):
            return None
        for field in fields:
            chunks[field].append(batch.main[field])
        order_chunks.append(np.asarray(wal_positions, dtype=np.int64))

    if not order_chunks:
        return None
    order = np.concatenate(order_chunks)
    sorter = np.argsort(order, kind="stable")
    return {
        field: np.concatenate(chunks[field])[sorter] for field in fields
    }


def iter_store_results(path: Union[str, Path]) -> Iterator[RunResult]:
    """Stream the live records of a store as :class:`RunResult` values.

    Records whose payload no longer matches the current :class:`RunResult`
    schema are skipped, mirroring :meth:`ResultStore.iter_results`.
    """
    for _key, payload in iter_store_records(path):
        try:
            yield RunResult.from_dict(payload)
        except _DECODE_ERRORS:
            continue


class ResultStore:
    """Content-addressed cache of :class:`RunResult` records.

    ``writer`` names a concurrent writer: its appends go to a private WAL
    inside the segment directory instead of the shared store path, so any
    number of writers can put into one store without interleaving.
    ``preload=False`` skips reading the existing catalog — the right mode
    for write-only handles such as pool workers.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        writer: str = "",
        preload: bool = True,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
    ) -> None:
        self._path = Path(path) if path is not None else default_store_path()
        self._writer = writer
        self._segdir = segments_dir(self._path)
        if writer:
            self._wal_path = self._segdir / f"wal-{writer}.jsonl"
        else:
            self._wal_path = self._path
        self._seal_threshold = seal_threshold
        self._fsync_batch = fsync_batch
        self._fsync_interval = fsync_interval
        # Catalog: key -> (ts, ordinal, kind, data). data is the payload
        # dict for WAL/external entries, (segment name, row) for sealed.
        self._catalog: Dict[str, Tuple[int, int, int, object]] = {}
        self._segmeta: Dict[str, SegmentMeta] = {}
        self._loaded: Dict[str, LoadedSegment] = {}
        self._ordinal = 0
        self._own_wal_count = 0
        self._unsynced = 0
        self._last_fsync = 0.0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.malformed = 0
        if preload:
            self._load()

    def _load(self) -> None:
        if (self._segdir / MANIFEST_NAME).exists():
            manifest = load_manifest(self._segdir)
            for meta in manifest.segments:
                self._segmeta[meta.name] = meta
                keys, ts_arr = read_segment_index(self._segdir, meta)
                for row in range(len(keys)):
                    self._note(
                        str(keys[row]), int(ts_arr[row]), _KIND_SEG, (meta.name, row)
                    )
        for wal_path in _wal_paths(self._path):
            if not wal_path.exists():
                continue
            own = wal_path == self._wal_path
            with wal_path.open("rb") as handle:
                for raw in handle:
                    parsed = _parse_wal_line(raw)
                    if parsed is None:
                        continue
                    key, ts, payload = parsed
                    if own:
                        self._own_wal_count += 1
                    self._note(
                        key, self._ordinal if ts is None else ts, _KIND_WAL, payload
                    )

    def _note(self, key: str, ts: int, kind: int, data: object) -> None:
        """Catalog ``key`` at commit stamp ``ts`` if it wins over what's there."""
        ordinal = self._ordinal
        self._ordinal += 1
        current = self._catalog.get(key)
        if current is None or (ts, ordinal) > current[:2]:
            self._catalog[key] = (ts, ordinal, kind, data)

    def _payload(self, entry: Tuple[int, int, int, object]) -> Dict[str, object]:
        _ts, _ordinal, kind, data = entry
        if kind != _KIND_SEG:
            return data  # type: ignore[return-value]
        name, row = data  # type: ignore[misc]
        loaded = self._segment(name)
        _key, payload = decode_record_row(loaded.main, loaded.hist, loaded.extras, row)
        return payload

    def _segment(self, name: str) -> LoadedSegment:
        if name not in self._loaded:
            self._loaded[name] = read_segment(self._segdir, self._segmeta[name])
        return self._loaded[name]

    def _timeline_dir(self) -> Path:
        return self._path.with_name(self._path.name + ".timelines")

    # -- queries -------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def writer(self) -> str:
        return self._writer

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.key() in self._catalog

    def keys(self) -> List[str]:
        return list(self._catalog)

    def segment_names(self) -> List[str]:
        """Names of the sealed segments this store knows about."""
        return list(self._segmeta)

    def timeline_path(self, key: str) -> Path:
        """Where the timeline sidecar for ``key`` lives (may not exist)."""
        return self._timeline_dir() / f"{key}.npz"

    def get_timeline(self, key: str) -> Optional[Timeline]:
        """The stored timeline sidecar for ``key``, or ``None``."""
        path = self.timeline_path(key)
        if not path.exists():
            return None
        try:
            return load_timeline(path)
        except (OSError, ValueError, KeyError) as exc:
            # Tolerated like a corrupt WAL line, but never silently: rot
            # here just makes every request for this point re-simulate.
            _LOG.warning(
                "corrupt timeline sidecar; treating as absent",
                extra={"key": key, "sidecar": str(path), "error": repr(exc)},
            )
            return None

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """Cached result for ``spec``, counting a hit or a miss.

        A spec requesting a timeline only hits when a sidecar sampled at
        the same cadence is present — otherwise the cached record cannot
        serve the request and the point must re-simulate with collection
        enabled (the re-run overwrites the record *and* writes the
        sidecar, so the next request hits).
        """
        key = spec.key()
        entry = self._catalog.get(key)
        if entry is None:
            self.misses += 1
            _STORE_MISSES.inc()
            return None
        try:
            result = RunResult.from_dict(self._payload(entry))
        except _DECODE_ERRORS as exc:
            # A record that no longer decodes is dropped (and the miss
            # re-simulates it) instead of poisoning every read.
            self.malformed += 1
            _STORE_MALFORMED.inc()
            _LOG.warning(
                "dropping malformed store record",
                extra={"key": key, "error": repr(exc)},
            )
            self._catalog.pop(key, None)
            self.misses += 1
            _STORE_MISSES.inc()
            return None
        timeline = None
        if spec.timeline_interval is not None:
            timeline = self.get_timeline(key)
            if (
                timeline is None
                or timeline.interval != spec.timeline_interval
                or timeline.occupancy_interval != spec.occupancy_sample_interval
            ):
                self.misses += 1
                _STORE_MISSES.inc()
                return None
        self.hits += 1
        _STORE_HITS.inc()
        if timeline is not None:
            result = result.with_timeline(timeline)
        return result

    def iter_results(self) -> Iterator[RunResult]:
        for key in list(self._catalog):
            entry = self._catalog.get(key)
            if entry is None:
                continue
            try:
                yield RunResult.from_dict(self._payload(entry))
            except _DECODE_ERRORS:
                self.malformed += 1
                _STORE_MALFORMED.inc()

    def iter_records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """The live ``(key, payload)`` records, in commit order."""
        for key, entry in sorted(self._catalog.items(), key=lambda item: item[1][:2]):
            yield key, self._payload(entry)

    # -- updates -------------------------------------------------------------
    def put(self, result: RunResult) -> None:
        """Persist ``result``; a key already present is overwritten in memory
        and superseded on disk (the newest commit timestamp wins on reload).

        The append is flushed before returning — a concurrent reader sees
        it immediately — while the fsync is group-committed (first write,
        then every :data:`DEFAULT_FSYNC_BATCH` records or
        :data:`DEFAULT_FSYNC_INTERVAL` seconds).  Call :meth:`flush` to
        force the sync point, e.g. before handing off to another process.
        """
        key = result.spec.key()
        record = result.to_dict()
        ts = time.time_ns()
        line = json.dumps({"key": key, "ts": ts, "result": record}) + "\n"
        with _TRACER.span("store_io"):
            self._wal_path.parent.mkdir(parents=True, exist_ok=True)
            with self._wal_path.open("a", encoding="utf-8") as handle:
                with _flock(handle):
                    handle.write(line)
                    handle.flush()
                    self._unsynced += 1
                    now = time.monotonic()
                    if (
                        self.writes == 0
                        or self._unsynced >= self._fsync_batch
                        or now - self._last_fsync >= self._fsync_interval
                    ):
                        os.fsync(handle.fileno())
                        self._unsynced = 0
                        self._last_fsync = now
        self._note(key, ts, _KIND_WAL, record)
        self._own_wal_count += 1
        self.writes += 1
        _STORE_PUTS.inc()
        _STORE_PUT_BYTES.add(len(line))
        timeline = getattr(result, "timeline", None)
        if timeline is not None:
            with _TRACER.span("store_io"):
                self._timeline_dir().mkdir(parents=True, exist_ok=True)
                written = save_timeline(self.timeline_path(key), timeline)
            _STORE_PUT_BYTES.add(written)
        if self._own_wal_count >= self._seal_threshold:
            self.seal()

    def note_external(self, result: RunResult) -> None:
        """Catalog a result another writer already persisted to this store.

        The pool runner's workers append to their own WALs; the parent
        calls this with the result that crossed the queue so its open
        handle serves it without re-writing a byte.
        """
        self._note(result.spec.key(), time.time_ns(), _KIND_EXT, result.to_dict())

    def flush(self) -> None:
        """Force the group-commit fsync point for this writer's WAL."""
        if self._unsynced == 0 or not self._wal_path.exists():
            return
        with self._wal_path.open("a", encoding="utf-8") as handle:
            os.fsync(handle.fileno())
        self._unsynced = 0
        self._last_fsync = time.monotonic()

    def seal(self) -> Optional[SegmentMeta]:
        """Seal this writer's WAL into an immutable columnar segment.

        Runs under the WAL lock: the lines are re-read from disk (the
        source of truth), packed via the columnar codec, written with the
        crash-safe tmp+fsync+replace discipline, committed into the
        manifest, and only then is the WAL truncated — so a crash at any
        point leaves either the old WAL or a fully committed segment,
        never a manifest entry over torn data.  Returns the new segment's
        meta, or ``None`` if the WAL held no records.
        """
        if not self._wal_path.exists():
            return None
        with _TRACER.span("store_io"):
            with self._wal_path.open("r+b") as handle:
                with _flock(handle):
                    records: List[Tuple[str, int, Dict[str, object]]] = []
                    latest: Dict[str, int] = {}
                    for position, raw in enumerate(handle):
                        parsed = _parse_wal_line(raw)
                        if parsed is None:
                            continue
                        key, ts, payload = parsed
                        records.append((key, position if ts is None else ts, payload))
                        latest[key] = len(records) - 1
                    if not records:
                        self._own_wal_count = 0
                        return None
                    # Within one WAL the last line per key wins outright;
                    # sealing folds those duplicates for free.
                    records = [
                        records[index] for index in sorted(latest.values())
                    ]
                    name = f"seg-{time.time_ns():020d}-{os.getpid()}"
                    if self._writer:
                        name += f"-{self._writer}"
                    batch = encode_record_batch(records)
                    meta = write_segment(
                        self._segdir, name, batch, writer=self._writer
                    )
                    merge_manifest(self._segdir, add=[meta])
                    handle.seek(0)
                    handle.truncate()
                    os.fsync(handle.fileno())
        self._segmeta[meta.name] = meta
        self._loaded[meta.name] = LoadedSegment(
            meta=meta, main=batch.main, hist=batch.hist, extras=batch.extras
        )
        for row, (key, ts, _payload) in enumerate(records):
            entry = self._catalog.get(key)
            if entry is not None and entry[0] == ts and entry[2] == _KIND_WAL:
                self._catalog[key] = (ts, entry[1], _KIND_SEG, (meta.name, row))
        self._own_wal_count = 0
        self._unsynced = 0
        _STORE_SEALS.inc()
        return meta

    def clear(self) -> None:
        """Drop every cached result, on disk and in memory."""
        self._catalog.clear()
        self._segmeta.clear()
        self._loaded.clear()
        self._own_wal_count = 0
        self._unsynced = 0
        if self._path.exists():
            self._path.unlink()
        if self._segdir.exists():
            for child in self._segdir.iterdir():
                try:
                    child.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    pass
            try:
                self._segdir.rmdir()
            except OSError:  # pragma: no cover - foreign files left behind
                pass
        sidecars = self._timeline_dir()
        if sidecars.exists():
            for path in sidecars.glob("*.npz"):
                path.unlink()
            try:
                sidecars.rmdir()
            except OSError:  # pragma: no cover - foreign files left behind
                pass

    def compact(self) -> "CompactionReport":
        """Fold the store down to one record per live key.

        The store is append-only, so re-running a point leaves superseded
        records behind.  A store that never sealed compacts exactly as the
        JSONL engine always did: the WAL is rewritten through a sibling
        temp file, fsynced, and :func:`os.replace`\\ d, so a crash
        mid-compact leaves the original intact.  A sealed store instead
        folds every live record into one fresh segment, commits it, and
        drops the dead segments and WAL lines.  Timeline sidecars whose
        key is no longer live are removed in the same pass.

        Compaction assumes no concurrent writers (it truncates their
        WALs); run it from the CLI between sweeps, not during one.
        """
        self._prune_timelines()
        if self._segmeta:
            return self._compact_segments()
        bytes_before = self._path.stat().st_size if self._path.exists() else 0
        lines_before = 0
        if self._path.exists():
            with self._path.open("r", encoding="utf-8") as handle:
                lines_before = sum(1 for line in handle if line.strip())
        if not self._catalog:
            if self._path.exists():
                self._path.unlink()
            return CompactionReport(
                entries_kept=0,
                lines_removed=lines_before,
                bytes_before=bytes_before,
                bytes_after=0,
            )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._path.with_name(self._path.name + ".tmp")
        try:
            with _TRACER.span("store_io"):
                with tmp.open("w", encoding="utf-8") as handle:
                    for key, entry in self._catalog.items():
                        handle.write(
                            json.dumps(
                                {
                                    "key": key,
                                    "ts": entry[0],
                                    "result": self._payload(entry),
                                }
                            )
                            + "\n"
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self._path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        _STORE_COMPACTIONS.inc()
        bytes_after = self._path.stat().st_size
        return CompactionReport(
            entries_kept=len(self._catalog),
            lines_removed=lines_before - len(self._catalog),
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    def _disk_usage(self) -> Tuple[int, int]:
        """``(wal_bytes, segment_bytes)`` currently on disk."""
        wal_bytes = sum(
            wal.stat().st_size for wal in _wal_paths(self._path) if wal.exists()
        )
        segment_bytes = 0
        if self._segdir.is_dir():
            for meta in self._segmeta.values():
                for file_name in segment_file_names(meta.name):
                    file_path = self._segdir / file_name
                    if file_path.exists():
                        segment_bytes += file_path.stat().st_size
            manifest_path = self._segdir / MANIFEST_NAME
            if manifest_path.exists():
                segment_bytes += manifest_path.stat().st_size
        return wal_bytes, segment_bytes

    def _compact_segments(self) -> "CompactionReport":
        wal_bytes, segment_bytes = self._disk_usage()
        bytes_before = wal_bytes + segment_bytes
        rows_before = sum(meta.rows for meta in self._segmeta.values())
        for wal in _wal_paths(self._path):
            if wal.exists():
                with wal.open("rb") as handle:
                    rows_before += sum(1 for raw in handle if raw.strip())
        segments_before = len(self._segmeta)
        old_names = list(self._segmeta)

        records = [
            (key, entry[0], self._payload(entry))
            for key, entry in sorted(
                self._catalog.items(), key=lambda item: item[1][:2]
            )
        ]
        with _TRACER.span("store_io"):
            new_metas: List[SegmentMeta] = []
            if records:
                name = f"seg-{time.time_ns():020d}-{os.getpid()}-compacted"
                batch = encode_record_batch(records)
                meta = write_segment(self._segdir, name, batch, writer=self._writer)
                new_metas.append(meta)
            merge_manifest(self._segdir, add=new_metas, drop=old_names)
            for stale in old_names:
                for file_name in segment_file_names(stale):
                    try:
                        (self._segdir / file_name).unlink()
                    except OSError:
                        pass
            for wal in _wal_paths(self._path):
                if wal == self._path:
                    # Keep the store path present (it is how tooling
                    # detects a store) but empty.
                    with wal.open("w", encoding="utf-8"):
                        pass
                elif wal.exists():
                    try:
                        wal.unlink()
                    except OSError:
                        pass

        self._segmeta.clear()
        self._loaded.clear()
        self._own_wal_count = 0
        if records:
            self._segmeta[meta.name] = meta
            self._loaded[meta.name] = LoadedSegment(
                meta=meta, main=batch.main, hist=batch.hist, extras=batch.extras
            )
            for row, (key, ts, _payload) in enumerate(records):
                entry = self._catalog[key]
                self._catalog[key] = (ts, entry[1], _KIND_SEG, (meta.name, row))
        _STORE_COMPACTIONS.inc()
        wal_bytes, segment_bytes = self._disk_usage()
        return CompactionReport(
            entries_kept=len(self._catalog),
            lines_removed=rows_before - len(records),
            bytes_before=bytes_before,
            bytes_after=wal_bytes + segment_bytes,
            segments_before=segments_before,
            segments_after=len(self._segmeta),
        )

    # -- JSONL compatibility -------------------------------------------------
    def export_jsonl(self, destination: Union[str, Path]) -> int:
        """Write the live records as plain last-wins JSONL; returns the count.

        The output format is exactly what the pre-engine store kept on
        disk (``{"key": ..., "result": ...}`` per line), so an export of a
        migrated store reproduces the original file last-wins-equivalently.
        """
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with destination.open("w", encoding="utf-8") as handle:
            for key, payload in self.iter_records():
                handle.write(json.dumps({"key": key, "result": payload}) + "\n")
                count += 1
        return count

    def import_jsonl(self, source: Union[str, Path]) -> Tuple[int, int]:
        """Import records from a JSONL store file; ``(imported, dropped)``.

        Every payload is validated through :meth:`RunResult.from_dict`
        before it is admitted — a malformed record is dropped and counted
        instead of poisoning later reads.
        """
        imported = 0
        dropped = 0
        for _key, payload in iter_store_records(source):
            try:
                result = RunResult.from_dict(payload)
            except _DECODE_ERRORS as exc:
                dropped += 1
                self.malformed += 1
                _STORE_MALFORMED.inc()
                _LOG.warning(
                    "dropping malformed record on import",
                    extra={"source": str(source), "error": repr(exc)},
                )
                continue
            self.put(result)
            imported += 1
        self.flush()
        return imported, dropped

    def stats(self) -> Dict[str, object]:
        """Storage-engine statistics for ``repro-run cache stats``."""
        wal_bytes, segment_bytes = self._disk_usage()
        wal_records = sum(
            1 for entry in self._catalog.values() if entry[2] == _KIND_WAL
        )
        return {
            "path": str(self._path),
            "entries": len(self._catalog),
            "segments": len(self._segmeta),
            "segment_rows": sum(meta.rows for meta in self._segmeta.values()),
            "wal_records": wal_records,
            "wal_bytes": wal_bytes,
            "segment_bytes": segment_bytes,
            "seal_threshold": self._seal_threshold,
            "writer": self._writer,
        }

    def _prune_timelines(self) -> None:
        """Remove sidecars for keys the store no longer holds."""
        sidecars = self._timeline_dir()
        if not sidecars.exists():
            return
        for path in sidecars.glob("*.npz"):
            if path.stem not in self._catalog:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore({str(self._path)!r}, entries={len(self._catalog)}, "
            f"segments={len(self._segmeta)})"
        )
