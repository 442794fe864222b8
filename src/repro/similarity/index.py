"""Cosine nearest-neighbour index over plan embeddings.

:class:`PlanIndex` maps fingerprints to embedding vectors and answers
nearest-neighbour queries under cosine distance.  It is built to the same
three contracts as the structures it sits beside:

* **Soft numpy dependency** (the :mod:`repro.engine.arrays` contract) —
  when numpy is importable and enabled, queries run as one matrix·vector
  product over an append-only dense matrix (rows in insertion order, grown
  by doubling, never rebuilt); otherwise a pure-list loop computes the
  same distances.  Embedding vectors are integer-valued by construction
  (:mod:`repro.similarity.embedding`), so every product and partial sum is
  exact in float64 and the two paths return **bit-identical** distances —
  not merely close ones.  ``REPRO_DISABLE_NUMPY`` and
  :func:`repro.engine.arrays.set_numpy_enabled` govern this index too.
* **Deterministic ordering** — query results sort by ``(distance,
  fingerprint)``: exact distance ties break by fingerprint, so results are
  stable across shard layouts, insertion orders, numpy on/off, and process
  boundaries.
* **One log, two views** — with a ``path`` the index persists through
  :class:`repro.pipeline.shardlog.ShardedLog`, the same log
  :class:`~repro.pipeline.coverage.CoverageStore` is a view of: append-only
  ``sim-NNN.jsonl`` shards (keyed by the same ``shard_for``) plus a
  ``SIMILARITY.json`` manifest written last, typically in the store's own
  directory.  Crash safety (torn tails skipped on load and never extended,
  :meth:`compact` healing them) is the log's; this module supplies only the
  record codec.
  Merging (:meth:`merge` / :meth:`to_payload` / :meth:`merge_payload`) is
  first-wins exact set union over fingerprints — commutative, associative,
  and idempotent — so :class:`repro.parallel.ShardedCampaign` workers hand
  indexes back to the parent exactly like coverage payloads.
"""

from __future__ import annotations

import math
from heapq import nsmallest
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine import arrays
from repro.errors import ReproError
from repro.pipeline.shardlog import ShardedLog, shard_for

try:  # pragma: no cover - exercised via both CI jobs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Below this many entries the list loop beats consulting the dense
#: matrix; above it the matrix path wins (and stays bit-identical).
_DENSE_MIN_ENTRIES = 8


class PlanIndexError(ReproError):
    """Raised for unrecoverable index problems (shard/dimension mismatch)."""


def cosine_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine distance between two equal-width vectors.

    Zero vectors compare at distance 0 to each other and 1 to everything
    else.  For integer-valued vectors the arithmetic is exact (see module
    docstring), which is what makes the numpy path reproducible.
    """
    if len(a) != len(b):
        raise PlanIndexError(
            f"vector width mismatch: {len(a)} vs {len(b)}"
        )
    dot = 0.0
    norm_a = 0.0
    norm_b = 0.0
    for x, y in zip(a, b):
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0 if norm_a == norm_b else 1.0
    # sqrt(norm_a * norm_b) — one sqrt of the exact product, never
    # sqrt(a)*sqrt(b): for identical vectors the product is a perfect
    # square, whose IEEE sqrt is exact, so self-distance is exactly 0.0.
    # The clamp guards the remaining one-rounding case a few ulps under 0.
    return max(0.0, 1.0 - dot / math.sqrt(norm_a * norm_b))


class PlanIndex(ShardedLog):
    """A sharded, optionally durable fingerprint → embedding index.

    Parameters
    ----------
    path:
        Directory to persist into — typically a :class:`CoverageStore`
        directory, where the index's ``sim-*.jsonl`` segments sit beside
        the store's.  ``None`` keeps the index in memory.
    shard_count:
        Number of segment files; must match an existing index's manifest
        (and, when sharing a directory, conventionally the store's).
    """

    _segment_prefix = "sim-"
    _manifest_name = "SIMILARITY.json"
    _noun = "similarity index"
    _error = PlanIndexError

    # -- record codec ----------------------------------------------------------

    def _reset(self) -> None:
        self.dimensions: Optional[int] = None
        self._shards: List[Dict[str, Tuple[float, ...]]] = [
            dict() for _ in range(self.shard_count)
        ]
        #: Every ``(fingerprint, vector)`` in insertion order — the row order of
        #: the dense matrix, whose first ``_dense_rows`` rows are filled
        #: (entries never leave).
        self._entries: List[Tuple[str, Tuple[float, ...]]] = []
        self._dense_rows = 0
        self._matrix = None
        self._norms_sq = None

    def _check_dimensions(self, vector: Tuple[float, ...]) -> None:
        if self.dimensions is None:
            self.dimensions = len(vector)
        elif len(vector) != self.dimensions:
            raise PlanIndexError(
                f"vector width {len(vector)} does not match the index "
                f"width {self.dimensions}"
            )

    def _apply_record(self, shard: int, record: Dict[str, object]) -> bool:
        fingerprint = record.get("f")
        vector = record.get("v")
        if not isinstance(fingerprint, str) or not isinstance(vector, list):
            return False
        if fingerprint in self._shards[shard]:
            return False
        self._insert(shard, fingerprint, tuple(float(value) for value in vector))
        return True

    def _insert(self, shard: int, fingerprint: str, values: Tuple[float, ...]) -> None:
        """The one way an entry enters memory (add, load, merge alike)."""
        self._check_dimensions(values)
        self._shards[shard][fingerprint] = values
        self._entries.append((fingerprint, values))

    def _shard_records(self, shard: int) -> List[Dict[str, object]]:
        return [
            {"f": fingerprint, "v": list(self._shards[shard][fingerprint])}
            for fingerprint in sorted(self._shards[shard])
        ]

    def _manifest_fields(self) -> Dict[str, object]:
        return {"entries": len(self._entries), "dimensions": self.dimensions}

    # -- core API --------------------------------------------------------------

    def add(self, fingerprint: str, vector: Sequence[float]) -> bool:
        """Record *fingerprint* → *vector*; True when the entry is new.

        First write wins: re-adding an indexed fingerprint never replaces
        its vector (embeddings are content-derived, so conflicting vectors
        for one fingerprint cannot arise from correct callers), which makes
        merges idempotent.
        """
        values = tuple(float(value) for value in vector)
        with self._lock:
            self._check_dimensions(values)
            shard = shard_for(fingerprint, self.shard_count)
            if fingerprint in self._shards[shard]:
                return False
            self._insert(shard, fingerprint, values)
            self._append(shard, {"f": fingerprint, "v": list(values)})
            return True

    def contains(self, fingerprint: str) -> bool:
        """Whether *fingerprint* is indexed."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            return fingerprint in self._shards[shard]

    __contains__ = contains

    def get(self, fingerprint: str) -> Optional[Tuple[float, ...]]:
        """The vector indexed for *fingerprint* (None when absent)."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            return self._shards[shard].get(fingerprint)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.fingerprints())

    def fingerprints(self) -> List[str]:
        """Every indexed fingerprint, sorted (layout-independent order)."""
        with self._lock:
            return sorted([fingerprint for fingerprint, _ in self._entries])

    # -- queries ---------------------------------------------------------------

    def _dense_matrix(self):
        """``(matrix, norms_sq)`` over every entry, rows in insertion order.

        Entries added since the last call go into spare capacity (doubled when
        it runs out): a ``nearest_distance`` → ``add`` step costs its own row.
        """
        total = len(self._entries)
        filled = self._dense_rows
        if filled < total:
            if self._matrix is None or total > len(self._matrix):
                matrix = _np.empty((2 * total, self.dimensions), dtype=_np.float64)
                norms_sq = _np.empty(2 * total, dtype=_np.float64)
                if filled:
                    matrix[:filled] = self._matrix[:filled]
                    norms_sq[:filled] = self._norms_sq[:filled]
                self._matrix, self._norms_sq = matrix, norms_sq
            block = self._matrix[filled:total]
            block[:] = [vector for _, vector in self._entries[filled:total]]
            # Squared norms stay exact integers; the sqrt happens per query
            # on the norms_sq * query_norm_sq product (see _nearest_pairs).
            self._norms_sq[filled:total] = (block * block).sum(axis=1)
            self._dense_rows = total
        return self._matrix[:total], self._norms_sq[:total]

    def _nearest_pairs(self, query: Tuple[float, ...], k: int) -> List[Tuple[float, str]]:
        """Unordered ``(distance, fingerprint)`` pairs holding the *k* nearest:
        every entry on the list path, those no farther than the *k*-th
        smallest distance (ties included) on the numpy path."""
        entries = self._entries
        total = len(entries)
        use_numpy = _np is not None and arrays.numpy_enabled() and total >= _DENSE_MIN_ENTRIES
        query_norm_sq = 0.0
        for value in query:
            query_norm_sq += value * value
        if use_numpy:
            matrix, norms_sq = self._dense_matrix()
            dots = matrix.dot(_np.asarray(query, dtype=_np.float64))
            if query_norm_sq == 0.0:
                distances = _np.where(norms_sq == 0.0, 0.0, 1.0)
            else:
                # One sqrt of the exact norms_sq product, exactly like the
                # list path and cosine_distance — a perfect square for a
                # self-comparison, so self-distance is exactly 0.0.
                safe = _np.sqrt(
                    _np.where(norms_sq == 0.0, 1.0, norms_sq * query_norm_sq)
                )
                distances = _np.maximum(
                    _np.where(norms_sq == 0.0, 1.0, 1.0 - dots / safe), 0.0
                )
            if k < total:
                cutoff = _np.partition(distances, k - 1)[k - 1]
                rows = _np.flatnonzero(distances <= cutoff).tolist()
            else:
                rows = range(total)
            return [(float(distances[row]), entries[row][0]) for row in rows]
        pairs: List[Tuple[float, str]] = []
        for fingerprint, vector in entries:
            dot = 0.0
            norm_sq = 0.0
            for x, y in zip(vector, query):
                dot += x * y
                norm_sq += x * x
            if norm_sq == 0.0 or query_norm_sq == 0.0:
                distance = 0.0 if norm_sq == query_norm_sq else 1.0
            else:
                distance = max(
                    0.0, 1.0 - dot / math.sqrt(norm_sq * query_norm_sq)
                )
            pairs.append((distance, fingerprint))
        return pairs

    def query(
        self, vector: Sequence[float], k: int = 1
    ) -> List[Tuple[str, float]]:
        """The *k* nearest entries as ``(fingerprint, distance)`` pairs.

        Results sort by ``(distance, fingerprint)`` — the fingerprint
        tie-break makes the ordering deterministic across shard layouts,
        numpy on/off, and processes.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query = tuple(float(value) for value in vector)
        with self._lock:
            if self.dimensions is not None and len(query) != self.dimensions:
                raise PlanIndexError(
                    f"query width {len(query)} does not match the index "
                    f"width {self.dimensions}"
                )
            pairs = self._nearest_pairs(query, k)
        best = nsmallest(k, pairs)
        return [(fingerprint, distance) for distance, fingerprint in best]

    def nearest(self, vector: Sequence[float]) -> Optional[Tuple[str, float]]:
        """The nearest entry, or None for an empty index."""
        results = self.query(vector, k=1)
        return results[0] if results else None

    def nearest_distance(self, vector: Sequence[float]) -> float:
        """Distance to the nearest entry; 1.0 (maximal) for an empty index."""
        nearest = self.nearest(vector)
        return 1.0 if nearest is None else nearest[1]

    # -- merge / payload handoff -----------------------------------------------

    def merge(
        self, other: Union["PlanIndex", Dict[str, Sequence[float]]]
    ) -> int:
        """Union *other* into this index; returns newly indexed fingerprints.

        First-wins exact set union: commutative and associative over the
        indexed fingerprint *sets*, idempotent, and independent of either
        side's shard layout.
        """
        if isinstance(other, PlanIndex):
            with other._lock:
                entries = list(other._entries)
        else:
            entries = list(other.items())
        added = 0
        for fingerprint, vector in entries:
            if self.add(fingerprint, vector):
                added += 1
        return added

    def to_payload(self) -> Dict[str, object]:
        """Export the index as one picklable, layout-independent payload.

        This is what a sharded-campaign worker ships back to its parent;
        plain dicts/lists only, suitable for :meth:`merge_payload` on any
        other index.  Floats survive JSON round-trips exactly (json emits
        ``repr``-faithful doubles), so payloads may also ride inside the
        campaign's persisted round files.
        """
        with self._lock:
            return {
                "entries": {
                    fingerprint: list(vector)
                    for fingerprint, vector in self._entries
                },
            }

    def merge_payload(self, payload: Dict[str, object]) -> int:
        """Union a :meth:`to_payload` export into this index."""
        added = 0
        for fingerprint in sorted(payload.get("entries", {})):
            if self.add(fingerprint, payload["entries"][fingerprint]):
                added += 1
        return added

    # -- persistence -----------------------------------------------------------

    def flush(self) -> None:
        """Flush buffered appends to disk (no-op in memory / when clean).

        Also refreshes the manifest so its entry count tracks the durable
        state at every checkpoint, not just after save()/compact().
        """
        if self.path is None or not self._dirty:
            return
        with self._lock:
            super().flush()
            self._write_manifest(self.path)
