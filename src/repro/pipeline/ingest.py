"""Batched, cached, deduplicating ingestion of raw DBMS query plans.

This module is the pipeline's application layer: it turns raw ``EXPLAIN``
output from any supported DBMS into deduplicated
:class:`~repro.core.model.UnifiedPlan` objects at batch granularity.
The stages are:

1. **Source dedup** — batch entries with an identical ``(dbms, format,
   source-hash)`` key collapse to one conversion before any parsing happens.
2. **Cached conversion** — unique sources convert through the
   :class:`~repro.converters.base.ConverterHub`'s LRU cache (thread-pooled
   when the batch warrants it), so sources seen in earlier batches are not
   re-parsed either.
3. **Fingerprint dedup** — converted plans with equal identity fingerprints
   (see :meth:`~repro.core.model.UnifiedPlan.fingerprint`) collapse to one
   representative, both within the batch and across the service's lifetime.

On top of the in-process stages, the service integrates the persistent
coverage layer (:mod:`repro.pipeline.coverage`):

* **Warm starts** — with ``persist_to=`` (or an explicit ``coverage=``
  store) the coverage index and a raw-source → fingerprint index survive
  the process.  A warm-started service recognises already-seen raw plans
  *before* converting them and skips the parse entirely, so re-ingesting a
  persisted corpus costs near zero conversions.

Invariants the service relies on (and preserves):

* plans returned by the service are **frozen** — they are shared between
  duplicate entries and with the conversion cache, and their fingerprints
  are pre-computed; callers that need to mutate must ``copy()`` first.
  Mutating a returned plan in place invalidates its cached fingerprints:
  the recomputed ``fingerprint()`` then no longer matches the index key
  the plan is filed under (``plan_for``/coverage), silently corrupting
  deduplication for every consumer sharing the object;
* fingerprints are canonical (property-order independent) and stable across
  processes, so coverage sets built from them can be merged between runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.converters.base import ConverterHub, PlanConverter, default_hub, source_hash
from repro.core.compare import structural_fingerprint
from repro.core.model import UnifiedPlan
from repro.errors import ConversionError, ReproError
from repro.pipeline.coverage import CoverageStore, source_key_digest


@dataclass(frozen=True)
class PlanSource:
    """One raw serialized plan awaiting ingestion."""

    dbms: str
    text: str
    format: Optional[str] = None
    query: str = ""


@dataclass
class IngestedPlan:
    """The outcome of ingesting one :class:`PlanSource`."""

    source: PlanSource
    plan: Optional[UnifiedPlan] = None
    fingerprint: str = ""
    #: Whether this entry triggered an actual conversion (False for source
    #: duplicates within the batch and for conversion-cache hits).
    converted: bool = False
    #: Index of the first batch entry with the same fingerprint, or None if
    #: this entry introduced the fingerprint to the batch.
    duplicate_of: Optional[int] = None
    #: True when the fingerprint was resolved from the persistent coverage
    #: index without converting (warm start); ``plan`` is then only set if a
    #: representative was ingested earlier in this process.
    from_index: bool = False
    #: Conversion error message, when the source could not be parsed.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class DbmsIngestStats:
    """Per-DBMS counters of an ingest batch (or of the service lifetime)."""

    sources: int = 0
    conversions: int = 0
    cache_hits: int = 0
    errors: int = 0
    unique_plans: int = 0

    def merge(self, other: "DbmsIngestStats") -> None:
        self.sources += other.sources
        self.conversions += other.conversions
        self.cache_hits += other.cache_hits
        self.errors += other.errors
        # unique_plans is a set size, not additive; the service recomputes it.

    def to_dict(self) -> Dict[str, int]:
        return {
            "sources": self.sources,
            "conversions": self.conversions,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "unique_plans": self.unique_plans,
        }


@dataclass
class IngestReport:
    """Everything :meth:`PlanIngestService.ingest_batch` produced."""

    entries: List[IngestedPlan] = field(default_factory=list)
    #: Number of conversions actually executed for this batch.
    conversions: int = 0
    #: Batch entries served without parsing (intra-batch source duplicates,
    #: conversion-cache hits from earlier batches, and persistent-index hits).
    cache_hits: int = 0
    #: The subset of ``cache_hits`` resolved from the persistent coverage
    #: index (warm start): the raw source was seen by an earlier run, so the
    #: fingerprint was known without any conversion.
    index_hits: int = 0
    #: Distinct identity fingerprints in this batch.
    unique_fingerprints: int = 0
    #: Fingerprints this batch introduced that the service had never seen.
    new_fingerprints: int = 0
    errors: int = 0
    per_dbms: Dict[str, DbmsIngestStats] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def plans(self) -> List[UnifiedPlan]:
        """The batch's deduplicated plans, one per unique fingerprint.

        Warm-start caveat: entries resolved from the persistent coverage
        index (``from_index``) carry no plan object unless a representative
        was ingested earlier in this process, so on a warm start this list
        can be shorter than ``unique_fingerprints`` — the whole point of the
        index is that those plans were *not* parsed.  Ingest with a fresh
        in-memory service (or consult ``plan_for``/the entries' fingerprints)
        when the plan objects themselves are needed.
        """
        seen: Dict[str, UnifiedPlan] = {}
        for entry in self.entries:
            if entry.ok and entry.plan is not None and entry.fingerprint not in seen:
                seen[entry.fingerprint] = entry.plan
        return list(seen.values())

    @property
    def throughput(self) -> float:
        """Ingested sources per second (0.0 for an empty/instant batch)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.entries) / self.elapsed_seconds


@dataclass
class ServiceStats:
    """Cumulative counters over every batch the service has ingested."""

    batches: int = 0
    sources: int = 0
    conversions: int = 0
    cache_hits: int = 0
    index_hits: int = 0
    errors: int = 0
    unique_plans: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "sources": self.sources,
            "conversions": self.conversions,
            "cache_hits": self.cache_hits,
            "index_hits": self.index_hits,
            "errors": self.errors,
            "unique_plans": self.unique_plans,
        }


def _default_worker_count() -> int:
    return min(8, max(1, (os.cpu_count() or 2) - 1))


class PlanIngestService:
    """High-throughput ingestion of raw plans into deduplicated UPlans.

    One service wraps one :class:`ConverterHub` (the process-wide default
    unless given) and maintains the cumulative fingerprint index that QPG
    and the testing campaign use as their coverage set.  The index lives in
    a :class:`~repro.pipeline.coverage.CoverageStore`; pass ``persist_to=``
    (a directory) to make it durable across processes, in which case the
    service also persists a raw-source index and *skips conversion
    entirely* for sources an earlier run already ingested.

    Parameters
    ----------
    hub:
        The converter hub to parse through (process-wide default if None).
    max_workers:
        Worker count of the thread-pooled conversion path.
    parallel_threshold:
        Batches with fewer unique sources than this convert sequentially;
        pool startup would dominate for tiny batches.
    persist_to:
        Directory for the durable coverage store.  Existing contents are
        loaded (warm start); new fingerprints are appended per batch.
    coverage:
        An explicit :class:`CoverageStore` to use instead (e.g. one shared
        by several services, or an in-memory store to merge later).  Takes
        precedence over *persist_to*.
    """

    def __init__(
        self,
        hub: Optional[ConverterHub] = None,
        max_workers: Optional[int] = None,
        parallel_threshold: int = 8,
        persist_to: Optional[str] = None,
        coverage: Optional[CoverageStore] = None,
    ) -> None:
        self.hub = hub or default_hub()
        self.max_workers = max_workers or _default_worker_count()
        #: Batches with fewer unique sources than this convert sequentially;
        #: thread-pool startup would dominate for tiny batches.
        self.parallel_threshold = parallel_threshold
        if coverage is not None:
            self.coverage = coverage
        else:
            self.coverage = CoverageStore(path=persist_to)
        self.stats = ServiceStats()
        self._per_dbms: Dict[str, DbmsIngestStats] = {}
        self._seen: Dict[str, UnifiedPlan] = {}
        #: Fingerprints whose coverage entry is known complete (metadata
        #: includes the structural fingerprint), so the per-entry dedup
        #: loop can skip the store entirely on repeats — the hot path for
        #: QPG's one-plan-per-query ingests.
        self._indexed: set = set()
        self.stats.unique_plans = len(self.coverage)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close the coverage store."""
        self.coverage.close()

    def __enter__(self) -> "PlanIngestService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def checkpoint(self) -> Optional[str]:
        """Atomically save the coverage index (durable stores only).

        Appends already flow to disk per batch; ``checkpoint()`` rewrites
        the segments deduplicated and refreshes the manifest, giving other
        processes a consistent point to load or merge from.  Returns the
        directory written, or None for a purely in-memory store.
        """
        if self.coverage.path is None:
            return None
        return self.coverage.save()

    def _resolve_spelling(self, dbms: str) -> Tuple[str, Optional[PlanConverter]]:
        """``(canonical name, converter)`` for one spelling of a DBMS name.

        Aliases resolve, so 'postgres' and 'postgresql' share one bucket; an
        unregistered DBMS keeps its normalised spelling and has no converter
        (the conversion stage records the per-entry error).
        """
        try:
            return self.hub.resolve_name(dbms), self.hub.converter(dbms)
        except ConversionError:
            return dbms.strip().lower(), None

    # -- single-plan convenience -------------------------------------------------

    def ingest(self, source: PlanSource) -> IngestedPlan:
        """Ingest one source (a batch of one)."""
        report = self.ingest_batch([source])
        return report.entries[0]

    # -- batch ingestion ----------------------------------------------------------

    def ingest_batch(self, sources: Iterable[PlanSource]) -> IngestReport:
        """Ingest *sources*, converting each unique source text exactly once."""
        started = time.perf_counter()
        batch: List[PlanSource] = list(sources)
        report = IngestReport(entries=[IngestedPlan(source) for source in batch])

        # Stage 1: collapse identical sources before converting anything.
        # Each spelling of a DBMS name resolves once per batch; the key is
        # the hub's own (it also resolves the default format, so format=None
        # and an explicit default-format spelling coincide) and is handed
        # back to convert_traced to skip re-hashing the text.
        spellings: Dict[str, Tuple[str, Optional[PlanConverter]]] = {}
        names: List[str] = []
        groups: Dict[Tuple[str, Optional[str], str], List[int]] = {}
        hub_derived: Dict[Tuple[str, Optional[str], str], bool] = {}
        for index, source in enumerate(batch):
            resolved = spellings.get(source.dbms)
            if resolved is None:
                resolved = spellings[source.dbms] = self._resolve_spelling(source.dbms)
            name, converter = resolved
            names.append(name)
            if converter is not None:
                key = converter.cache_key(source.text, source.format)
            else:
                key = (name, source.format, source_hash(source.text))
            groups.setdefault(key, []).append(index)
            hub_derived[key] = converter is not None

        # Stage 2: resolve one representative per group — from the hub's
        # conversion cache, from the persistent source index (warm start:
        # the fingerprint is known without parsing at all), or by actually
        # converting (thread-pooled for large batches).
        group_items = list(groups.items())
        jobs: List[Tuple[PlanSource, Optional[Tuple[str, str, str]]]] = []
        job_positions: List[int] = []
        known_fingerprints: Dict[int, str] = {}
        for position, (key, indexes) in enumerate(group_items):
            if hub_derived[key] and not self.hub.contains_key(key):
                known = self.coverage.lookup_source(source_key_digest(*key))
                if known is not None:
                    known_fingerprints[position] = known
                    continue
            jobs.append((batch[indexes[0]], key if hub_derived[key] else None))
            job_positions.append(position)
        resolved = dict(zip(job_positions, self._convert_many(jobs)))

        for position, (key, indexes) in enumerate(group_items):
            if position in known_fingerprints:
                fingerprint = known_fingerprints[position]
                plan = self._seen.get(fingerprint)
                for index in indexes:
                    entry = report.entries[index]
                    entry.plan = plan
                    entry.fingerprint = fingerprint
                    entry.from_index = True
                continue
            plan, error, parsed = resolved[position]
            for index in indexes:
                entry = report.entries[index]
                if error is not None:
                    entry.error = error
                    continue
                entry.plan = plan
                entry.fingerprint = plan.fingerprint()
            if error is None:
                # Only the group's representative can have triggered a parse.
                report.entries[indexes[0]].converted = parsed
                if parsed and hub_derived[key]:
                    # Remember which raw source this fingerprint came from,
                    # so a future (warm-started) run skips the parse.  Hub
                    # cache hits were mapped when they first parsed, so the
                    # digest work is skipped on repeats.
                    self.coverage.map_source(
                        source_key_digest(*key), plan.fingerprint()
                    )

        # Stage 3: fingerprint dedup within the batch and against the
        # coverage index (which includes fingerprints loaded from disk).
        # Fingerprints new to the whole index are attributed to their
        # (canonical) DBMS incrementally, so no full-index rescan is needed.
        first_with: Dict[str, int] = {}
        new_fingerprints = 0
        new_by_dbms: Dict[str, int] = {}
        # Capture representatives first: a parsed plan may share its
        # fingerprint with an earlier index-hit entry that carried no plan
        # object, and plan_for() must still find it.
        for entry in report.entries:
            if (
                entry.ok
                and entry.plan is not None
                and entry.fingerprint not in self._seen
            ):
                self._seen[entry.fingerprint] = entry.plan
        for index, entry in enumerate(report.entries):
            if not entry.ok or not entry.fingerprint:
                continue
            if entry.fingerprint in first_with:
                entry.duplicate_of = first_with[entry.fingerprint]
                continue
            first_with[entry.fingerprint] = index
            if entry.fingerprint in self._indexed:
                continue  # store entry known complete: nothing to learn
            name = names[index]
            meta: Dict[str, object] = {"d": name}
            plan = self._seen.get(entry.fingerprint)
            if plan is not None:
                meta["s"] = structural_fingerprint(plan)
            if self.coverage.add(entry.fingerprint, meta):
                new_fingerprints += 1
                new_by_dbms[name] = new_by_dbms.get(name, 0) + 1
            if "s" in meta or "s" in (self.coverage.get(entry.fingerprint) or {}):
                self._indexed.add(entry.fingerprint)

        # Per-DBMS breakdown (exact: `converted`/`error` are per-entry facts).
        per_dbms_fingerprints: Dict[str, set] = {}
        for name, entry in zip(names, report.entries):
            stats = report.per_dbms.setdefault(name, DbmsIngestStats())
            stats.sources += 1
            if not entry.ok:
                stats.errors += 1
            elif entry.converted:
                stats.conversions += 1
            else:
                stats.cache_hits += 1
            if entry.ok:
                per_dbms_fingerprints.setdefault(name, set()).add(entry.fingerprint)
        for name, fingerprints in per_dbms_fingerprints.items():
            report.per_dbms[name].unique_plans = len(fingerprints)

        # Batch-level counters.
        report.errors = sum(stats.errors for stats in report.per_dbms.values())
        report.conversions = sum(stats.conversions for stats in report.per_dbms.values())
        report.cache_hits = sum(stats.cache_hits for stats in report.per_dbms.values())
        report.index_hits = sum(1 for entry in report.entries if entry.from_index)
        report.unique_fingerprints = len(first_with)
        report.new_fingerprints = new_fingerprints
        report.elapsed_seconds = time.perf_counter() - started

        # Cumulative service stats.
        self.stats.batches += 1
        self.stats.sources += len(batch)
        self.stats.conversions += report.conversions
        self.stats.cache_hits += report.cache_hits
        self.stats.index_hits += report.index_hits
        self.stats.errors += report.errors
        # Incremental: len(coverage) walks every shard, which would be the
        # dominant cost of single-plan batches.
        self.stats.unique_plans += report.new_fingerprints
        for name, stats in report.per_dbms.items():
            cumulative = self._per_dbms.setdefault(name, DbmsIngestStats())
            cumulative.merge(stats)
        for name, increment in new_by_dbms.items():
            self._per_dbms.setdefault(name, DbmsIngestStats()).unique_plans += increment
        # Checkpoint the (durable) coverage index: appended records flow to
        # the OS per batch, so a crash costs at most the current batch.
        self.coverage.flush()
        return report

    def _convert_many(
        self, jobs: Sequence[Tuple[PlanSource, Optional[Tuple[str, str, str]]]]
    ) -> List[Tuple[Optional[UnifiedPlan], Optional[str], bool]]:
        """Convert unique ``(source, precomputed_key)`` jobs, thread-pooled
        for large batches.

        Returns ``(plan, error, parsed)`` triples, where *parsed* records
        whether the hub actually ran a converter (False on a cache hit).
        """

        def convert_one(
            job: Tuple[PlanSource, Optional[Tuple[str, str, str]]],
        ) -> Tuple[Optional[UnifiedPlan], Optional[str], bool]:
            source, key = job
            try:
                plan, parsed = self.hub.convert_traced(
                    source.dbms, source.text, source.format, key=key
                )
                return plan, None, parsed
            except ReproError as exc:  # conversion errors become per-entry data
                return None, str(exc), False

        if len(jobs) < self.parallel_threshold or self.max_workers <= 1:
            return [convert_one(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=self.max_workers) as executor:
            return list(executor.map(convert_one, jobs))

    # -- coverage index -----------------------------------------------------------

    def unique_plan_count(self) -> int:
        """Number of distinct plan fingerprints covered.

        Includes fingerprints loaded from (or merged into) the persistent
        coverage store, not just plans ingested by this process.
        """
        return len(self.coverage)

    def fingerprints(self) -> List[str]:
        """Every identity fingerprint in the coverage index."""
        return self.coverage.fingerprints()

    def plan_for(self, fingerprint: str) -> Optional[UnifiedPlan]:
        """The representative plan for *fingerprint*.

        Only plans actually ingested in this process are held in memory;
        fingerprints known purely from the persistent index return None.
        """
        return self._seen.get(fingerprint)

    def per_dbms_stats(self) -> Dict[str, DbmsIngestStats]:
        """Cumulative per-DBMS counters (shared objects; do not mutate)."""
        return dict(self._per_dbms)
