"""Durable, sharded coverage store for plan fingerprints.

The pipeline's fingerprints are canonical and process-stable by design (see
:meth:`repro.core.model.UnifiedPlan.fingerprint`), which makes coverage sets
mergeable between campaign runs — but the :class:`~repro.pipeline.ingest.PlanIngestService`
index used to die with the process.  :class:`CoverageStore` makes that index
durable and sharded:

* **Shards** — entries are partitioned into ``shard_count`` buckets keyed by
  the fingerprint's leading hex digits, so large corpora split into many
  small segment files and two stores merge shard-by-shard.
* **Durability** — every record is appended to its shard's JSONL segment
  (``shard-000.jsonl`` …) as it is added; :meth:`save` and :meth:`compact`
  rewrite the segments atomically with the manifest last.  The rules (what
  a crash can lose, how a torn tail is skipped and never extended) are the
  log's, stated in :mod:`repro.pipeline.shardlog`.
* **Record kinds** — besides plan fingerprints (with optional metadata such
  as the structural fingerprint and source DBMS), the store holds a
  *source index* mapping raw-source digests to fingerprints — this is what
  lets a warm-started ingest service skip conversions for already-seen raw
  plans — and *marks*, free-form labels campaigns use to record completed
  rounds for resume.

The store is thread-safe; all mutating operations take an internal lock.

**Views of one log** — the store is a typed view of
:class:`repro.pipeline.shardlog.ShardedLog`, which owns every byte of disk
handling (attach, manifest validation, torn-tail rules, appends, flush,
atomic save, compact).  This module supplies only the record codec and the
file names ``shard-NNN.jsonl`` / ``MANIFEST.json``.
:class:`repro.similarity.PlanIndex` is a second view of the same log
(``sim-NNN.jsonl`` + ``SIMILARITY.json``), so a campaign directory carries
coverage and its similarity index side by side and both survive crashes by
the same rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from repro.errors import ReproError
# DEFAULT_SHARD_COUNT is re-exported: with shard_for it keeps importing from
# here (and repro.pipeline) as it did before the log moved out.
from repro.pipeline.shardlog import DEFAULT_SHARD_COUNT, ShardedLog, shard_for  # noqa: F401


def source_key_digest(dbms: str, format: str, text_hash: str) -> str:
    """Collapse a conversion-cache key into one stable digest string.

    The ingest service keys conversions by ``(canonical dbms, resolved
    format, sha1(source))``; the store persists the triple as a single
    digest so the source index stays one flat mapping.
    """
    joined = "\x00".join((dbms, format, text_hash))
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CoverageSnapshot:
    """An immutable summary of a store's current contents."""

    entries: int = 0
    sources: int = 0
    marks: int = 0
    shard_count: int = 0
    shard_sizes: List[int] = field(default_factory=list)
    per_dbms: Dict[str, int] = field(default_factory=dict)
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "entries": self.entries,
            "sources": self.sources,
            "marks": self.marks,
            "shard_count": self.shard_count,
            "shard_sizes": list(self.shard_sizes),
            "per_dbms": dict(self.per_dbms),
            "path": self.path,
        }


class CoverageStoreError(ReproError):
    """Raised for unrecoverable store problems (e.g. shard-count mismatch)."""


class CoverageStore(ShardedLog):
    """A sharded, optionally durable fingerprint/coverage index.

    ``path`` and ``shard_count`` are the log's: see :class:`ShardedLog`.
    """

    _segment_prefix = "shard-"
    _manifest_name = "MANIFEST.json"
    _noun = "coverage store"
    _error = CoverageStoreError

    # -- record codec ----------------------------------------------------------

    def _reset(self) -> None:
        #: fingerprint -> metadata dict (may be empty), per shard.
        self._shards: List[Dict[str, Dict[str, object]]] = [
            dict() for _ in range(self.shard_count)
        ]
        #: source digest -> fingerprint, per shard (sharded by the digest).
        self._sources: List[Dict[str, str]] = [
            dict() for _ in range(self.shard_count)
        ]
        #: free-form labels (completed campaign rounds etc.), per shard.
        self._marks: List[Set[str]] = [set() for _ in range(self.shard_count)]

    def _apply_record(self, shard: int, record: Dict[str, object]) -> bool:
        """Apply one decoded record to the in-memory index.  True if new."""
        kind = record.get("t")
        if kind == "p":
            fingerprint = record.get("f")
            if not isinstance(fingerprint, str):
                return False
            meta = record.get("m") or {}
            existing = self._shards[shard].get(fingerprint)
            if existing is None:
                self._shards[shard][fingerprint] = dict(meta)
                return True
            # Later records may carry richer metadata (e.g. a structural
            # fingerprint added by a newer writer); merge, never drop.
            for key, value in meta.items():
                existing.setdefault(key, value)
            return False
        if kind == "s":
            digest, fingerprint = record.get("k"), record.get("f")
            if not isinstance(digest, str) or not isinstance(fingerprint, str):
                return False
            if digest in self._sources[shard]:
                return False
            self._sources[shard][digest] = fingerprint
            return True
        if kind == "m":
            label = record.get("k")
            if not isinstance(label, str) or label in self._marks[shard]:
                return False
            self._marks[shard].add(label)
            return True
        return False

    def _shard_records(self, shard: int) -> List[Dict[str, object]]:
        records: List[Dict[str, object]] = []
        for fingerprint in sorted(self._shards[shard]):
            meta = self._shards[shard][fingerprint]
            record: Dict[str, object] = {"t": "p", "f": fingerprint}
            if meta:
                record["m"] = meta
            records.append(record)
        for digest in sorted(self._sources[shard]):
            records.append(
                {"t": "s", "k": digest, "f": self._sources[shard][digest]}
            )
        for label in sorted(self._marks[shard]):
            records.append({"t": "m", "k": label})
        return records

    def _manifest_fields(self) -> Dict[str, object]:
        return {
            "entries": sum(len(shard) for shard in self._shards),
            "sources": sum(len(shard) for shard in self._sources),
            "marks": sum(len(shard) for shard in self._marks),
        }

    # -- core API --------------------------------------------------------------

    def add(self, fingerprint: str, meta: Optional[Dict[str, object]] = None) -> bool:
        """Record *fingerprint*; returns True when it was not yet covered.

        Re-adding a covered fingerprint with richer metadata merges the new
        fields (existing fields win) and — for durable stores — appends the
        enriched record, so learned metadata survives a reload even when no
        explicit :meth:`save` follows.
        """
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            existing = self._shards[shard].get(fingerprint)
            if existing is None:
                self._shards[shard][fingerprint] = dict(meta or {})
                record: Dict[str, object] = {"t": "p", "f": fingerprint}
                if meta:
                    record["m"] = meta
                self._append(shard, record)
                return True
            enriched = False
            for key, value in (meta or {}).items():
                if key not in existing:
                    existing[key] = value
                    enriched = True
            if enriched:
                self._append(shard, {"t": "p", "f": fingerprint, "m": existing})
            return False

    def contains(self, fingerprint: str) -> bool:
        """Whether *fingerprint* is covered."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            return fingerprint in self._shards[shard]

    __contains__ = contains

    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The metadata recorded for *fingerprint* (None if not covered)."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            meta = self._shards[shard].get(fingerprint)
            return None if meta is None else dict(meta)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(shard) for shard in self._shards)

    def __iter__(self) -> Iterator[str]:
        return iter(self.fingerprints())

    def fingerprints(self) -> List[str]:
        """Every covered fingerprint (shard-major order)."""
        with self._lock:
            collected: List[str] = []
            for shard in self._shards:
                collected.extend(shard)
            return collected

    def structural_fingerprints(self) -> Set[str]:
        """The set of structural fingerprints recorded in entry metadata."""
        with self._lock:
            found: Set[str] = set()
            for shard in self._shards:
                for meta in shard.values():
                    structural = meta.get("s")
                    if isinstance(structural, str):
                        found.add(structural)
            return found

    # -- source index ----------------------------------------------------------

    def map_source(self, digest: str, fingerprint: str) -> bool:
        """Record that the raw source identified by *digest* converts to
        *fingerprint*; returns True when the mapping is new."""
        record = {"t": "s", "k": digest, "f": fingerprint}
        with self._lock:
            shard = shard_for(digest, self.shard_count)
            is_new = self._apply_record(shard, record)
            if is_new:
                self._append(shard, record)
            return is_new

    def lookup_source(self, digest: str) -> Optional[str]:
        """The fingerprint a previously-seen source converts to, if known."""
        with self._lock:
            shard = shard_for(digest, self.shard_count)
            return self._sources[shard].get(digest)

    def source_count(self) -> int:
        """Number of raw-source → fingerprint mappings held."""
        with self._lock:
            return sum(len(shard) for shard in self._sources)

    # -- marks -----------------------------------------------------------------

    def mark(self, label: str) -> bool:
        """Record a free-form completion label; True when newly marked."""
        record = {"t": "m", "k": label}
        with self._lock:
            shard = shard_for(label, self.shard_count)
            is_new = self._apply_record(shard, record)
            if is_new:
                self._append(shard, record)
            return is_new

    def is_marked(self, label: str) -> bool:
        """Whether *label* was previously marked."""
        with self._lock:
            shard = shard_for(label, self.shard_count)
            return label in self._marks[shard]

    def marks(self) -> Set[str]:
        """Every recorded mark."""
        with self._lock:
            collected: Set[str] = set()
            for shard in self._marks:
                collected |= shard
            return collected

    # -- merge -----------------------------------------------------------------

    def merge(
        self,
        other: Union["CoverageStore", Iterable[str], Dict[str, Dict[str, object]]],
    ) -> int:
        """Union *other* into this store; returns newly covered fingerprints.

        Merging is exact set union: fingerprints present in both stores are
        never double-counted, source mappings and marks carry over, and
        metadata merges field-wise (existing fields win).  *other* may be
        another store, a ``fingerprint -> meta`` mapping, or a plain
        iterable of fingerprints.
        """
        if isinstance(other, CoverageStore):
            return self.merge_payload(other.to_payload())
        added = 0
        if isinstance(other, dict):
            for fingerprint, meta in other.items():
                if self.add(fingerprint, meta or None):
                    added += 1
            return added
        for fingerprint in other:
            if self.add(fingerprint):
                added += 1
        return added

    # -- payload handoff -------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Export the store's full contents as one picklable payload.

        The payload is what a sharded-campaign worker sends back to its
        parent process: plain dicts/lists/sets only, independent of the
        store's shard layout, suitable for :meth:`merge_payload` on any
        other store.  Handles, locks, and the shard structure stay behind.
        """
        with self._lock:
            return {
                "entries": {
                    fingerprint: dict(meta)
                    for shard in self._shards
                    for fingerprint, meta in shard.items()
                },
                "sources": {
                    digest: fingerprint
                    for shard in self._sources
                    for digest, fingerprint in shard.items()
                },
                "marks": sorted(
                    label for shard in self._marks for label in shard
                ),
            }

    def merge_payload(self, payload: Dict[str, object]) -> int:
        """Union a :meth:`to_payload` export into this store.

        Same semantics as :meth:`merge`: exact set union over fingerprints
        (the return value counts the newly covered ones), source mappings
        and marks carry over, metadata merges field-wise with existing
        fields winning.
        """
        added = 0
        for fingerprint, meta in payload.get("entries", {}).items():
            if self.add(fingerprint, meta or None):
                added += 1
        for digest, fingerprint in payload.get("sources", {}).items():
            self.map_source(digest, fingerprint)
        for label in payload.get("marks", ()):
            self.mark(label)
        return added

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> CoverageSnapshot:
        """An independent summary of the store's current contents."""
        with self._lock:
            per_dbms: Dict[str, int] = {}
            for shard in self._shards:
                for meta in shard.values():
                    dbms = meta.get("d")
                    if isinstance(dbms, str):
                        per_dbms[dbms] = per_dbms.get(dbms, 0) + 1
            return CoverageSnapshot(
                entries=sum(len(shard) for shard in self._shards),
                sources=sum(len(shard) for shard in self._sources),
                marks=sum(len(shard) for shard in self._marks),
                shard_count=self.shard_count,
                shard_sizes=[len(shard) for shard in self._shards],
                per_dbms=per_dbms,
                path=self.path,
            )
