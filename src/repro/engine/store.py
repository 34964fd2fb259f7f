"""Content-addressed on-disk result store, kept as JSONL write-ahead logs.

Results are keyed by the :meth:`RunSpec.key` content hash, ``get``/``put``
count hits and misses, and counter timelines live in ``.npz`` sidecars.
On disk a store is nothing but JSONL write-ahead logs (WALs):

* **Write path.** ``put`` appends one line ``{"key", "ts", "result"}`` to
  the store path under ``flock``, so separate processes can share one
  store; ``ts`` is a ``time_ns`` commit stamp that orders records across
  writers.  Appends are flushed immediately (a concurrent reader sees
  them) but fsynced in *groups* — the first write, then every
  :data:`FSYNC_BATCH` records or :data:`FSYNC_INTERVAL` seconds, whichever
  comes first.  :meth:`ResultStore.flush` forces the sync point.  The pool
  runner's parent process is its only writer: workers send their results
  home and never open the store.
* **Per-writer WALs, read only.** Earlier versions' pool workers each
  appended to their own ``<store>.segments/wal-<writer>.jsonl``, and a
  store written only by a pool holds nothing else.  Those files are still
  read, resolved and compacted; nothing writes them any more.
* **Last-wins, decided once.** An open reads the main WAL, then every
  per-writer WAL in name order, and :meth:`ResultStore._note` keeps the
  record with the greatest ``(ts, scan ordinal)`` per key.  Lines without
  a ``ts`` (written before commit stamps existed) rank by scan position,
  beneath any stamped record.  :func:`iter_store_records` reads the same
  catalog, so this rule is coded in one place.
* **Compaction.** :meth:`ResultStore.compact` writes the live records in
  commit order through a temp file, ``os.replace``\\ s the store path with
  it and only then unlinks the per-writer WALs, so a crash at any point
  leaves either the original WALs or duplicates that last-wins resolves.
* **No segments.** A whole paper is 182 records, so the store never packs
  its WALs into a binary format.  A store that an earlier version sealed
  into columnar segments (``<store>.segments/MANIFEST.json``) raises
  :class:`SealedStoreError` on open rather than reading as empty or
  partial: export it with that version and import the export here.

``export_jsonl``/``import_jsonl`` (surfaced as ``repro-run cache
export``/``import``) translate any store to and from plain last-wins
JSONL and validate records on the way in.

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

from repro.engine.results import RunResult
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
    "SealedStoreError",
    "default_store_path",
    "iter_store_records",
    "iter_store_results",
    "segments_dir",
    "store_exists",
]

#: Environment variable overriding the default on-disk store location.
STORE_ENV_VAR = "REPRO_RESULT_STORE"

#: Group-commit fsync policy: sync after this many unsynced appends ...
FSYNC_BATCH = 64
#: ... or this many seconds since the last sync, whichever comes first.
FSYNC_INTERVAL = 0.05

#: The segment manifest of a store sealed by an earlier version.
_SEALED_MANIFEST = "MANIFEST.json"

_LOG = get_logger("repro.engine.store")

# Store-level telemetry: one bump per get/put/compact, with durable I/O
# (append + flush + group fsync, compaction rewrites) timed under ``store_io``.
_STORE_HITS = _obs_counter("store.get.hits", help="result-store cache hits")
_STORE_MISSES = _obs_counter("store.get.misses", help="result-store cache misses")
_STORE_PUTS = _obs_counter("store.puts", help="results appended to the store")
_STORE_PUT_BYTES = _obs_counter(
    "store.put_bytes", help="bytes appended to the store (before fsync)"
)
_STORE_COMPACTIONS = _obs_counter(
    "store.compactions", help="store compaction passes"
)
_STORE_MALFORMED = _obs_counter(
    "store.malformed", help="records dropped because their payload no longer decodes"
)

#: Exceptions meaning "this payload no longer matches the RunResult schema".
_DECODE_ERRORS = (KeyError, TypeError, ValueError)


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`ResultStore.compact` pass recovered."""

    entries_kept: int
    lines_removed: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_saved(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    def __str__(self) -> str:
        return (
            f"kept {self.entries_kept} entries, removed {self.lines_removed} "
            f"superseded records, saved {self.bytes_saved} bytes"
        )


class SealedStoreError(RuntimeError):
    """The store was sealed into columnar segments by an earlier version."""

    def __init__(self, path: Path) -> None:
        super().__init__(
            f"{path} was sealed into columnar segments "
            f"({segments_dir(path) / _SEALED_MANIFEST}) by an earlier version, "
            "which this version no longer reads. Export it with that version "
            f"(repro-run cache export FILE --store {path}), then import the "
            "export into a fresh store with this one "
            "(repro-run cache import FILE --store NEW_PATH)."
        )


def default_store_path() -> Path:
    """The shared store location: ``$REPRO_RESULT_STORE`` or the user cache."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-cuckoo" / "results.jsonl"


def segments_dir(path: Union[str, Path]) -> Path:
    """Where a store at ``path`` holds the per-writer WALs of earlier versions."""
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

    ``ts`` is ``None`` for lines written before commit stamps existed;
    callers substitute scan position so legacy records always order
    before (and among themselves, by) anything stamped with ``time_ns``.
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


def _wal_usage(path: Path) -> Tuple[int, int]:
    """``(records, bytes)`` over every WAL of the store at ``path``.

    Records are non-blank lines, superseded and torn ones included: what
    is on disk, not what is live.
    """
    records = size = 0
    for wal in _wal_paths(path):
        if wal.exists():
            size += wal.stat().st_size
            with wal.open("rb") as handle:
                records += sum(1 for raw in handle if raw.strip())
    return records, size


def store_exists(path: Union[str, Path]) -> bool:
    """Whether anything of a store exists at ``path``.

    That is its main WAL or any per-writer WAL — a store that an earlier
    version wrote only from pool workers holds nothing but
    ``<store>.segments/wal-<writer>.jsonl`` files — or the manifest of a
    sealed store, so that opening one fails loudly instead of reading as
    absent.
    """
    path = Path(path)
    return (segments_dir(path) / _SEALED_MANIFEST).exists() or any(
        wal.exists() for wal in _wal_paths(path)
    )


def iter_store_records(
    path: Union[str, Path],
) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Stream the live ``(key, result)`` records of a store, in commit order.

    This walks a :class:`ResultStore`'s own catalog, so the reload rules
    are the store's: the record with the greatest commit timestamp per key
    wins (for legacy stores, the last line), and corrupt WAL lines are
    skipped.  Commit order (for a single-writer store, write order) gives
    aggregation downstream a deterministic record order.
    """
    yield from ResultStore(path).iter_records()


def iter_store_results(path: Union[str, Path]) -> Iterator[RunResult]:
    """Stream the live records of a store as :class:`RunResult` values.

    Records whose payload no longer matches the current :class:`RunResult`
    schema are skipped, as :meth:`ResultStore.iter_results` does.
    """
    yield from ResultStore(path).iter_results()


class ResultStore:
    """Content-addressed cache of :class:`RunResult` records at ``path``
    (default: :func:`default_store_path`)."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self._path = Path(path) if path is not None else default_store_path()
        if (segments_dir(self._path) / _SEALED_MANIFEST).exists():
            raise SealedStoreError(self._path)
        # Catalog: key -> (ts, ordinal, payload) of the winning record.
        self._catalog: Dict[str, Tuple[int, int, Dict[str, object]]] = {}
        self._ordinal = 0
        self._unsynced = 0
        self._last_fsync = 0.0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.malformed = 0
        self._load()

    def _load(self) -> None:
        for wal_path in _wal_paths(self._path):
            if not wal_path.exists():
                continue
            with wal_path.open("rb") as handle:
                for raw in handle:
                    parsed = _parse_wal_line(raw)
                    if parsed is None:
                        continue
                    key, ts, payload = parsed
                    self._note(key, self._ordinal if ts is None else ts, payload)

    def _note(self, key: str, ts: int, payload: Dict[str, object]) -> None:
        """Catalog ``key`` at commit stamp ``ts`` if it wins over what's there.

        This is the store's one last-wins rule: the greatest ``(ts,
        ordinal)`` wins, where the ordinal counts the records this handle
        has seen, in scan order and then put order.
        """
        ordinal = self._ordinal
        self._ordinal += 1
        current = self._catalog.get(key)
        if current is None or (ts, ordinal) > current[:2]:
            self._catalog[key] = (ts, ordinal, payload)

    def _in_commit_order(self) -> List[Tuple[str, Tuple[int, int, Dict[str, object]]]]:
        return sorted(self._catalog.items(), key=lambda item: item[1][:2])

    def _timeline_dir(self) -> Path:
        return self._path.with_name(self._path.name + ".timelines")

    # -- queries -------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.key() in self._catalog

    def keys(self) -> List[str]:
        return list(self._catalog)

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
            result = RunResult.from_dict(entry[2])
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
        """The live records as :class:`RunResult` values, in commit order.

        Records that no longer decode are skipped and counted in
        ``malformed``.
        """
        for _key, payload in self.iter_records():
            try:
                yield RunResult.from_dict(payload)
            except _DECODE_ERRORS:
                self.malformed += 1
                _STORE_MALFORMED.inc()

    def iter_records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """The live ``(key, payload)`` records, in commit order."""
        for key, (_ts, _ordinal, payload) in self._in_commit_order():
            yield key, payload

    # -- updates -------------------------------------------------------------
    def put(self, result: RunResult) -> None:
        """Persist ``result``; a key already present is overwritten in memory
        and superseded on disk (the newest commit timestamp wins on reload).

        The append is flushed before returning — a concurrent reader sees
        it immediately — while the fsync is group-committed (first write,
        then every :data:`FSYNC_BATCH` records or :data:`FSYNC_INTERVAL`
        seconds).  Call :meth:`flush` to force the sync point, e.g. before
        handing off to another process.
        """
        key = result.spec.key()
        record = result.to_dict()
        ts = time.time_ns()
        line = json.dumps({"key": key, "ts": ts, "result": record}) + "\n"
        with _TRACER.span("store_io"):
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("a", encoding="utf-8") as handle:
                with _flock(handle):
                    handle.write(line)
                    handle.flush()
                    self._unsynced += 1
                    now = time.monotonic()
                    if (
                        self.writes == 0
                        or self._unsynced >= FSYNC_BATCH
                        or now - self._last_fsync >= FSYNC_INTERVAL
                    ):
                        os.fsync(handle.fileno())
                        self._unsynced = 0
                        self._last_fsync = now
        self._note(key, ts, record)
        self.writes += 1
        _STORE_PUTS.inc()
        _STORE_PUT_BYTES.add(len(line))
        timeline = getattr(result, "timeline", None)
        if timeline is not None:
            with _TRACER.span("store_io"):
                self._timeline_dir().mkdir(parents=True, exist_ok=True)
                written = save_timeline(self.timeline_path(key), timeline)
            _STORE_PUT_BYTES.add(written)

    def flush(self) -> None:
        """Force the group-commit fsync point for this handle's appends."""
        if self._unsynced == 0 or not self._path.exists():
            return
        with self._path.open("a", encoding="utf-8") as handle:
            os.fsync(handle.fileno())
        self._unsynced = 0
        self._last_fsync = time.monotonic()

    def clear(self) -> None:
        """Drop every cached result, on disk and in memory."""
        self._catalog.clear()
        self._unsynced = 0
        if self._path.exists():
            self._path.unlink()
        segdir = segments_dir(self._path)
        if segdir.exists():
            for child in segdir.iterdir():
                try:
                    child.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    pass
            try:
                segdir.rmdir()
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
        """Fold every WAL of the store into one record per live key.

        The store is append-only, so re-running a point leaves superseded
        records behind, and earlier versions' pool workers left a WAL
        each.  The live records are written in commit order to a sibling
        temp file, fsynced and :func:`os.replace`\\ d over the store path,
        so a crash mid-write leaves the original intact; only then are the
        per-writer WALs unlinked (and ``<store>.segments/`` with them, when
        nothing else is in it), and a crash before that leaves duplicates
        that last-wins resolves on the next open.  Timeline sidecars whose
        key is no longer live are removed in the same pass.

        Compaction assumes no concurrent writers (an append racing the
        replace would be lost); run it from the CLI between sweeps, not
        during one.
        """
        self._prune_timelines()
        wals = [wal for wal in _wal_paths(self._path) if wal.exists()]
        records_before, bytes_before = _wal_usage(self._path)
        if self._catalog:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._path.with_name(self._path.name + ".tmp")
            try:
                with _TRACER.span("store_io"):
                    with tmp.open("w", encoding="utf-8") as handle:
                        for key, (ts, _ordinal, payload) in self._in_commit_order():
                            handle.write(
                                json.dumps({"key": key, "ts": ts, "result": payload})
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
        # The store path now holds every live record (or, in an empty
        # store, nothing does), so the other WALs are duplicates.
        for wal in wals:
            if wal != self._path or not self._catalog:
                wal.unlink()
        # Their directory goes too once it is empty; a foreign file keeps it.
        try:
            segments_dir(self._path).rmdir()
        except OSError:
            pass
        _STORE_COMPACTIONS.inc()
        _records_after, bytes_after = _wal_usage(self._path)
        return CompactionReport(
            entries_kept=len(self._catalog),
            lines_removed=records_before - len(self._catalog),
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    # -- JSONL interchange ---------------------------------------------------
    def export_jsonl(self, destination: Union[str, Path]) -> int:
        """Write the live records as plain last-wins JSONL; returns the count.

        One ``{"key": ..., "result": ...}`` line per live record, in
        commit order and without commit stamps, so any tool or older
        checkout can read it.
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
        """Store statistics for ``repro-run cache stats``.

        ``wal_records`` and ``wal_bytes`` count every WAL on disk, the
        superseded records compaction would remove included.
        """
        records, size = _wal_usage(self._path)
        return {
            "path": str(self._path),
            "entries": len(self._catalog),
            "wal_records": records,
            "wal_bytes": size,
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
        return f"ResultStore({str(self._path)!r}, entries={len(self._catalog)})"
