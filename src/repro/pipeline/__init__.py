"""The plan pipeline: canonical, cached, batched ingestion of query plans.

This package is the scale-out layer above the unified representation.  Where
:mod:`repro.converters` turns one raw plan into one
:class:`~repro.core.model.UnifiedPlan`, the pipeline turns *streams* of raw
plans from any mix of the nine DBMSs into a deduplicated corpus:

* :class:`PlanSource` — one raw serialized plan plus its provenance,
* :class:`PlanIngestService` — batched ingestion with source-level dedup,
  LRU-cached conversion (via the
  :class:`~repro.converters.base.ConverterHub`), thread-pooled parsing
  for large batches, and fingerprint-level dedup,
* :class:`CoverageStore` — the durable, sharded fingerprint/coverage index
  (exact cross-process merge) that lets coverage survive restarts and
  campaigns resume; a typed view of :mod:`repro.pipeline.shardlog`'s
  ``ShardedLog`` (append-only JSONL segments keyed by fingerprint prefix,
  atomic save/load, one set of crash-safety rules), which
  :class:`repro.similarity.PlanIndex` is the second view of,
* :class:`IngestReport` / :class:`ServiceStats` — per-batch and cumulative
  observability (conversions, cache hits, index hits, unique plans,
  per-DBMS splits).

Pipeline invariants:

* **Canonical order** — fingerprints are computed over properties in the
  grammar's category order, so property order never affects plan identity
  (see :meth:`repro.core.model.UnifiedPlan.canonicalize`).
* **Fingerprint stability** — fingerprints depend only on plan content,
  never on process state, so they are stable across processes and runs and
  coverage sets may be merged between campaigns.
* **Frozen plans** — plans returned by the pipeline are shared (between
  duplicates and with the conversion cache) and must not be mutated;
  ``copy()`` first if mutation is needed.
"""

from repro.pipeline.coverage import (
    CoverageSnapshot,
    CoverageStore,
    CoverageStoreError,
    shard_for,
    source_key_digest,
)
from repro.pipeline.ingest import (
    DbmsIngestStats,
    IngestReport,
    IngestedPlan,
    PlanIngestService,
    PlanSource,
    ServiceStats,
)

__all__ = [
    "CoverageSnapshot",
    "CoverageStore",
    "CoverageStoreError",
    "DbmsIngestStats",
    "IngestReport",
    "IngestedPlan",
    "PlanIngestService",
    "PlanSource",
    "ServiceStats",
    "shard_for",
    "source_key_digest",
]
