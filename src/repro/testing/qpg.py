"""Query Plan Guidance (QPG) implemented DBMS-agnostically on UPlan.

QPG steers random test-case generation towards unseen query plans: it tracks
the set of *structurally distinct* unified plans observed so far and, when no
new plan has appeared for a configurable number of consecutive queries,
mutates the database state (adds indexes, inserts/updates/deletes rows) to
unlock new plan shapes.

The original implementation needed a DBMS-specific plan parser per system; on
top of UPlan a single implementation covers every convertible DBMS
(Figure 2).  The plan fingerprint ignores unstable information — estimated
costs, runtime metrics, and auto-generated operator identifiers — which is
precisely where the original TiDB-specific parser had a bug.

Coverage is tracked with the cached Merkle *structural fingerprints* from
:mod:`repro.core.compare` (not whole-plan string keys), and raw plans are
converted through a :class:`~repro.pipeline.PlanIngestService`, so repeated
plan texts are parsed once and campaigns can merge coverage sets across
DBMSs and runs (fingerprints are process-stable).

When the ingest service carries a persistent
:class:`~repro.pipeline.CoverageStore`, every structural fingerprint QPG
observes is durably recorded (the service stores it as entry metadata), and
plans whose raw text an earlier run already ingested resolve from the
persistent source index without re-parsing: ``observe_plan`` then reads the
structural fingerprint straight from the store.  The per-round
``seen_fingerprints`` set intentionally starts empty each round — round
behaviour (stagnation, mutations) must not depend on which process runs the
round, or an interrupted campaign would diverge from an uninterrupted one.

**Novelty modes.**  ``QPGConfig.novelty`` selects how "new" is judged:

* ``"exact"`` (the default) — a plan is new iff its structural fingerprint
  is unseen this round.  This is the pre-similarity behaviour, bit for
  bit: no embedding is computed, no index consulted.
* ``"similarity"`` — each distinct plan earns a *novelty reward*: its
  cosine distance to the nearest plan already in the round's
  :class:`~repro.similarity.PlanIndex` (1.0 for the round's first plan).
  The plan counts as new when the reward exceeds
  ``novelty_threshold``, so near-duplicates of covered shapes no longer
  reset the stagnation counter and mutations fire sooner.  The index
  starts empty each round for the same process-independence reason as
  ``seen_fingerprints``; campaigns merge the per-round indexes afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.compare import structural_fingerprint
from repro.core.model import UnifiedPlan
from repro.errors import ConversionError
from repro.pipeline import PlanIngestService, PlanSource
from repro.similarity import PlanIndex, embed_plan
from repro.testing.failures import SkipFailures
from repro.testing.generator import RandomQueryGenerator
from repro.testing.tlp import TLPResult, check_tlp

#: Valid ``QPGConfig.novelty`` modes.
NOVELTY_MODES = ("exact", "similarity")


@dataclass
class QPGConfig:
    """Configuration of the QPG loop."""

    queries_per_round: int = 200
    stagnation_threshold: int = 12
    run_tlp: bool = True
    #: How plan novelty is judged — ``"exact"`` (structural-fingerprint set
    #: membership, the byte-identical default) or ``"similarity"``
    #: (distance-to-nearest-covered-plan; see the module docstring).
    novelty: str = "exact"
    #: Minimum nearest-neighbour cosine distance for a plan to count as
    #: new under ``novelty="similarity"``; ignored in exact mode.
    novelty_threshold: float = 0.05


@dataclass
class QPGStatistics:
    """Aggregate results of a QPG run."""

    queries_generated: int = 0
    unique_plans: int = 0
    mutations_applied: int = 0
    #: Plans resolved via the hub's ``is_cached`` fast path (no PlanSource
    #: built, no ingest-service bookkeeping) — still conversion-cache hits.
    fast_path_hits: int = 0
    oracle_checks: int = 0
    oracle_violations: int = 0
    #: Sum of the per-plan novelty rewards (nearest-covered-plan distances)
    #: under ``novelty="similarity"``; stays 0.0 in exact mode.
    novelty_reward_total: float = 0.0
    violating_queries: List[str] = field(default_factory=list)
    #: Statements skipped on an error that is not a ``ReproError`` (see
    #: :class:`~repro.testing.failures.SkipFailures`).
    unexpected_errors: int = 0


class QueryPlanGuidance:
    """The DBMS-agnostic QPG loop over a simulated DBMS."""

    def __init__(
        self,
        dialect,
        generator: RandomQueryGenerator,
        config: Optional[QPGConfig] = None,
        ingest_service: Optional[PlanIngestService] = None,
        plan_index: Optional[PlanIndex] = None,
    ) -> None:
        self.dialect = dialect
        self.generator = generator
        self.config = config or QPGConfig()
        if self.config.novelty not in NOVELTY_MODES:
            raise ValueError(
                f"unknown novelty mode {self.config.novelty!r}; "
                f"expected one of {NOVELTY_MODES}"
            )
        #: Conversion goes through the (optionally shared) ingest service so
        #: repeated plan texts parse once and conversion stats are observable.
        self.ingest_service = ingest_service or PlanIngestService()
        self.converter = self.ingest_service.hub.converter(dialect.name)
        self.seen_fingerprints: Set[str] = set()
        #: The similarity index scoring novelty rewards; None in exact mode
        #: (which must not touch the similarity machinery at all).  A caller
        #: may inject a pre-built index — campaigns pass a fresh per-round
        #: one so they can collect it afterwards.
        if self.config.novelty == "similarity":
            self.plan_index = plan_index if plan_index is not None else PlanIndex()
        else:
            self.plan_index = None
        self.statistics = QPGStatistics()

    # ------------------------------------------------------------------ plan handling

    def _record_observation(
        self,
        fingerprint: str,
        plan: Optional[UnifiedPlan],
        output_text: str,
        explain_format: str,
    ) -> bool:
        """Record one observed plan; returns whether it counts as new.

        Both ``observe_plan`` paths (fast and slow) funnel through here so
        the novelty policy is applied exactly once per observation.  In
        exact mode this is pure set membership — no embedding, no index.
        In similarity mode the plan's novelty reward is its distance to the
        round's nearest indexed plan; *plan* may be None (warm-start path),
        in which case the raw text converts through the hub's cache only
        when the reward is actually needed.
        """
        is_new = fingerprint not in self.seen_fingerprints
        self.seen_fingerprints.add(fingerprint)
        if self.plan_index is None:
            return is_new
        if self.plan_index.contains(fingerprint):
            # Re-observing an indexed plan earns no reward (distance 0).
            return False
        if plan is None:
            plan = self.ingest_service.hub.convert(
                self.dialect.name, output_text, explain_format
            )
        vector = embed_plan(plan)
        reward = self.plan_index.nearest_distance(vector)
        self.plan_index.add(fingerprint, vector)
        self.statistics.novelty_reward_total += reward
        return reward > self.config.novelty_threshold

    def observe_plan(self, query: str) -> bool:
        """EXPLAIN *query*, ingest the plan, and record its fingerprint.

        Returns whether the plan was new *to this round* under the
        configured novelty mode (see module docstring).  Plans resolved
        from the persistent coverage index (warm start) never re-parse:
        their structural fingerprint is read from the store's entry
        metadata instead of the plan object.
        """
        explain_format = self.converter.formats[0]
        output = self.dialect.explain(query, format=explain_format)
        hub = self.ingest_service.hub
        # Fast path (PR-1 follow-up): raw plan texts a campaign has already
        # converted in this process resolve straight from the hub's
        # conversion cache — no PlanSource object, no ingest bookkeeping.
        # Gated on the coverage index already holding the fingerprint, so
        # the slow path below remains the only writer of coverage entries.
        key = hub.cache_key(self.dialect.name, output.text, explain_format)
        if hub.contains_key(key):
            plan, _ = hub.convert_traced(
                self.dialect.name, output.text, explain_format, key=key
            )
            if self.ingest_service.coverage.contains(plan.fingerprint()):
                self.statistics.fast_path_hits += 1
                return self._record_observation(
                    structural_fingerprint(plan), plan, output.text, explain_format
                )
        entry = self.ingest_service.ingest(
            PlanSource(self.dialect.name, output.text, explain_format, query=query)
        )
        if not entry.ok:
            raise ConversionError(self.dialect.name, entry.error)
        if entry.plan is not None:
            plan = entry.plan
            fingerprint = structural_fingerprint(plan)
        else:
            # Warm start: the identity fingerprint came from the persistent
            # index without conversion; the structural fingerprint rides in
            # the store's metadata.
            plan = None
            meta = self.ingest_service.coverage.get(entry.fingerprint) or {}
            structural = meta.get("s")
            if isinstance(structural, str):
                fingerprint = structural
            else:
                # A foreign/merged store may know the identity fingerprint
                # but not the structural one; parse once to recover it and
                # write it back so no later process repeats the work.
                plan = self.ingest_service.hub.convert(
                    self.dialect.name, output.text, explain_format
                )
                fingerprint = structural_fingerprint(plan)
                self.ingest_service.coverage.add(
                    entry.fingerprint, {"s": fingerprint}
                )
        return self._record_observation(fingerprint, plan, output.text, explain_format)

    # ------------------------------------------------------------------ oracle

    def _check_oracle(self) -> None:
        if not self.config.run_tlp:
            return
        table = self.generator.random.choice(self.generator.tables)
        predicate = self.generator.random_predicate(table)
        self.statistics.oracle_checks += 1
        result: TLPResult = check_tlp(self.dialect, table, predicate)
        if not result.passed:
            self.statistics.oracle_violations += 1
            self.statistics.violating_queries.append(result.partition_queries[0])

    # ------------------------------------------------------------------ main loop

    def run(self, setup_statements: Optional[List[str]] = None) -> QPGStatistics:
        """Run one QPG campaign round and return its statistics."""
        skip = SkipFailures.load(
            self.dialect, setup_statements or self.generator.schema_statements()
        )
        stagnation = 0
        for _ in range(self.config.queries_per_round):
            query = self.generator.select_query()
            self.statistics.queries_generated += 1
            with skip:
                is_new = self.observe_plan(query)
                self.dialect.execute(query)
            if skip.failed:
                continue
            self._check_oracle()
            if is_new:
                stagnation = 0
            else:
                stagnation += 1
            if stagnation >= self.config.stagnation_threshold:
                mutation = self.generator.mutation_statement()
                with skip:
                    self.dialect.execute(mutation)
                    self.dialect.analyze_tables()
                self.statistics.mutations_applied += 1
                stagnation = 0
        self.statistics.unique_plans = len(self.seen_fingerprints)
        self.statistics.unexpected_errors += skip.unexpected
        return self.statistics
