"""One sharded, append-only, crash-safe log — the disk layer under every
durable per-fingerprint structure in the package.

:class:`ShardedLog` owns everything about *how* records reach disk and come
back; it knows nothing about *what* a record means.  A view
(:class:`repro.pipeline.coverage.CoverageStore`,
:class:`repro.similarity.index.PlanIndex`) subclasses it, names its files and
supplies the four-hook record codec declared on the class.  Several views may
share one directory as long as their file names differ.

The crash-safety rules live here, once:

* **Shards** — keys route to ``shard_count`` segments through
  :func:`shard_for`; one JSONL segment file per shard.
* **Appends** — a log bound to a directory appends every record to its
  segment immediately; :meth:`~ShardedLog.flush` hands the buffered tail to
  the OS, so a crash loses at most the unflushed tail of each segment.
* **Torn tails** — a load skips an unparsable line (the fragment a crashed
  writer left); when a segment's last line has no newline, the next append
  to that shard starts a fresh line first, so the fragment can never swallow
  a later record.  :meth:`~ShardedLog.compact` rewrites the segment without it.
* **Atomic rewrite** — ``save`` / ``compact`` rewrite every segment through a
  tmp file + ``fsync`` + ``os.replace`` and write the manifest *last*: a
  reader sees the previous complete state or the new one.
* **Loud mismatches** — a manifest with another shard count, a segment
  outside the requested shard range on a manifest-less directory, an
  unreadable manifest, or a ``save`` over somebody else's log raises the
  view's typed error instead of silently dropping data.

The log is thread-safe; mutating operations take an internal lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Iterable, List, Optional, Set, TextIO, Tuple, Type, TypeVar

#: Default number of shards; a power of two so hex-prefix keys spread evenly.
DEFAULT_SHARD_COUNT = 16

#: Schema version recorded in every manifest.
_MANIFEST_VERSION = 1

_SEGMENT_SUFFIX = ".jsonl"

_Log = TypeVar("_Log", bound="ShardedLog")


def atomic_write_lines(target: str, lines: Iterable[str]) -> int:
    """Write *lines* to *target* via tmp file + fsync + ``os.replace``.

    The write is all-or-nothing: a reader (or a crash) never observes a
    half-written file.  Returns the number of lines written.
    """
    tmp = target + ".tmp"
    count = 0
    with open(tmp, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return count


def atomic_write_json(target: str, payload: Dict[str, object]) -> None:
    """Atomically write *payload* as pretty-printed JSON (manifests)."""
    atomic_write_lines(target, [json.dumps(payload, indent=2, sort_keys=True)])


def shard_for(key: str, shard_count: int) -> int:
    """Map *key* (a fingerprint or digest) to its shard index.

    Fingerprints are hex digests, so the leading four hex digits are a
    uniform shard key; non-hex keys (marks, foreign identifiers) fall back
    to hashing so every string routes deterministically.
    """
    try:
        prefix = int(key[:4], 16)
    except (ValueError, IndexError):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).hexdigest()
        prefix = int(digest, 16)
    return prefix % shard_count


def _encode(record: Dict[str, object]) -> str:
    """The one on-disk spelling of a record (one line, no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ShardedLog:
    """A sharded, optionally durable, append-only record log.

    Parameters
    ----------
    path:
        Directory to persist into.  ``None`` keeps the log purely in memory
        (``save`` then requires an explicit path).  When the directory
        already holds this view's log, its records are loaded and new ones
        are appended to the existing segments.
    shard_count:
        Number of segment files.  Must match an existing log's manifest.
    """

    #: Supplied by each view: segment files are ``<prefix>NNN.jsonl``.
    _segment_prefix: str
    _manifest_name: str
    #: What error messages call the view ("coverage store", …).
    _noun: str
    _error: Type[Exception]

    def __init__(
        self, path: Optional[str] = None, shard_count: int = DEFAULT_SHARD_COUNT
    ) -> None:
        if shard_count <= 0:
            raise ValueError("shard_count must be positive")
        self.path = path
        self.shard_count = shard_count
        self._lock = threading.RLock()
        self._handles: List[Optional[TextIO]] = [None] * shard_count
        #: Shards whose segment ends in a line without a newline: the next
        #: append must start a fresh line instead of extending the fragment.
        self._torn: Set[int] = set()
        #: Whether records were appended since the last flush (makes
        #: flush() a no-op on the hot path when there is nothing to do).
        self._dirty = False
        self._reset()
        if path is not None:
            self._attach(path)

    # -- the codec a view supplies ---------------------------------------------

    def _reset(self) -> None:
        """Create the view's empty in-memory state."""
        raise NotImplementedError

    def _apply_record(self, shard: int, record: Dict[str, object]) -> bool:
        """Fold one decoded record into memory.  True if it was new."""
        raise NotImplementedError

    def _shard_records(self, shard: int) -> List[Dict[str, object]]:
        """The shard's contents as canonical, deterministically ordered records."""
        raise NotImplementedError

    def _manifest_fields(self) -> Dict[str, object]:
        """The view's own manifest entries (counters, dimensions, …)."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    def _attach(self, path: str) -> None:
        """Bind the log to *path*, loading any existing segments."""
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, self._manifest_name)
        if os.path.exists(manifest_path):
            stored = self._stored_shard_count(manifest_path)
            if stored != self.shard_count:
                raise self._error(
                    f"{self._noun} at {path!r} has {stored} shards, "
                    f"requested {self.shard_count}"
                )
        else:
            # A log that crashed before its first save has segments but no
            # manifest; a wrong shard_count would silently drop the
            # out-of-range segments.  Detect stray segments, then write the
            # manifest immediately so future opens validate normally.
            for name in os.listdir(path):
                if not (
                    name.startswith(self._segment_prefix)
                    and name.endswith(_SEGMENT_SUFFIX)
                ):
                    continue
                try:
                    index = int(name[len(self._segment_prefix): -len(_SEGMENT_SUFFIX)])
                except ValueError:
                    continue
                if index >= self.shard_count:
                    raise self._error(
                        f"{self._noun} at {path!r} has segment {name} outside "
                        f"the requested {self.shard_count} shards"
                    )
            self._write_manifest(path)
        self.path = path
        for shard in range(self.shard_count):
            segment = self._segment_path(shard)
            if not os.path.exists(segment):
                continue
            raw = ""
            with open(segment, "r", encoding="utf-8") as handle:
                for raw in handle:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        # A torn tail from a crashed writer; everything
                        # before it already loaded.  compact() heals it.
                        continue
                    self._apply_record(shard, record)
            if raw and not raw.endswith("\n"):
                self._torn.add(shard)

    def _stored_shard_count(self, manifest_path: str) -> int:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except ValueError:
                manifest = None
        stored = (
            manifest.get("shard_count", self.shard_count)
            if isinstance(manifest, dict)
            else None
        )
        if not isinstance(stored, int) or isinstance(stored, bool):
            raise self._error(
                f"{self._noun} manifest {manifest_path!r} is not a JSON object "
                "with an integer shard_count"
            )
        return stored

    @classmethod
    def open(
        cls: Type[_Log], path: str, shard_count: int = DEFAULT_SHARD_COUNT
    ) -> _Log:
        """Open (creating if absent) the log persisted at *path*."""
        return cls(path=path, shard_count=shard_count)

    def close(self) -> None:
        """Flush and close the segment file handles."""
        with self._lock:
            self._close_handles()

    def _close_handles(self) -> None:
        for shard, handle in enumerate(self._handles):
            if handle is not None:
                self._handles[shard] = None
                try:
                    handle.close()
                except OSError:
                    pass

    def __enter__(self: _Log) -> _Log:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self._close_handles()
        except Exception:  # noqa: BLE001 - a finalizer, may run at interpreter shutdown
            pass

    # -- appends ---------------------------------------------------------------

    def _segment_path(self, shard: int, root: Optional[str] = None) -> str:
        return os.path.join(
            root or self.path, f"{self._segment_prefix}{shard:03d}{_SEGMENT_SUFFIX}"
        )

    def _append(self, shard: int, record: Dict[str, object]) -> None:
        """Append one record to the shard's segment (durable logs only)."""
        if self.path is None:
            return
        handle = self._handles[shard]
        if handle is None:
            handle = open(self._segment_path(shard), "a", encoding="utf-8")
            self._handles[shard] = handle
            if shard in self._torn:
                handle.write("\n")
                self._torn.discard(shard)
        handle.write(_encode(record))
        handle.write("\n")
        self._dirty = True

    def flush(self) -> None:
        """Flush buffered appends to disk.

        A cheap no-op for in-memory logs and when nothing was appended
        since the last flush — the ingest service calls this once per
        batch, which for single-plan batches is a hot path.
        """
        if self.path is None or not self._dirty:
            return
        with self._lock:
            for handle in self._handles:
                if handle is not None:
                    handle.flush()
            self._dirty = False

    # -- atomic rewrite --------------------------------------------------------

    def _write_manifest(self, root: str) -> None:
        atomic_write_json(
            os.path.join(root, self._manifest_name),
            {
                **self._manifest_fields(),
                "version": _MANIFEST_VERSION,
                "shard_count": self.shard_count,
            },
        )

    def _rewrite(self, root: str) -> int:
        """Rewrite every segment deduplicated, then the manifest; line count."""
        if root == self.path:
            # The append handles hold positions inside files we are about
            # to replace; close them so later appends reopen fresh.
            self._close_handles()
            self._torn.clear()
        lines = 0
        for shard in range(self.shard_count):
            lines += atomic_write_lines(
                self._segment_path(shard, root),
                (_encode(record) for record in self._shard_records(shard)),
            )
        self._write_manifest(root)
        return lines

    def save(self, path: Optional[str] = None) -> str:
        """Atomically persist the whole log; returns the directory written.

        Every segment is rewritten deduplicated (tmp file + ``os.replace``)
        and the manifest is written last, so concurrent readers either see
        the previous complete state or the new one — never a torn mix.
        Saving to a new *path* re-binds a previously in-memory log — but
        only into an empty/fresh directory: saving over a *different*
        existing log would silently destroy its contents, so that fails
        loudly (open it and :meth:`merge` instead).
        """
        with self._lock:
            root = path or self.path
            if root is None:
                raise self._error(f"in-memory {self._noun}: save() needs a path")
            if root != self.path and os.path.exists(
                os.path.join(root, self._manifest_name)
            ):
                raise self._error(
                    f"{root!r} already holds a {self._noun}; open it and "
                    "merge() instead of overwriting"
                )
            os.makedirs(root, exist_ok=True)
            self._rewrite(root)
            if self.path is None:
                self.path = root
            return root

    def compact(self) -> Tuple[int, int]:
        """Rewrite segments dropping duplicate/torn lines.

        Returns ``(lines_before, lines_after)`` summed over all segments.
        For a durable log this is also how append-only segments that
        accumulated re-merged records are shrunk back to one line per fact.
        """
        with self._lock:
            if self.path is None:
                total = sum(
                    len(self._shard_records(shard))
                    for shard in range(self.shard_count)
                )
                return (total, total)
            before = 0
            for shard in range(self.shard_count):
                segment = self._segment_path(shard)
                if os.path.exists(segment):
                    with open(segment, "r", encoding="utf-8") as handle:
                        before += sum(1 for _ in handle)
            return (before, self._rewrite(self.path))
