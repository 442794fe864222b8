"""The bounded testing campaign that regenerates Table V.

The paper ran QPG and CERT for 24 hours against MySQL, PostgreSQL, and TiDB
and reported 17 previously unknown bugs.  The campaign here runs the same two
oracles against the simulated dialects with seeded faults
(:mod:`repro.testing.bugs`) for a bounded number of iterations, attributing
every detected violation to the corresponding known bug id, so the resulting
report has the same rows as Table V.

Campaigns are **resumable**.  With ``persist_to=`` the campaign's ingest
service keeps its coverage index in a durable
:class:`~repro.pipeline.CoverageStore`; each completed per-DBMS round is
marked in the store, and the store is atomically checkpointed after every
round.  A campaign stopped between rounds (``max_rounds=``, a crash after a
checkpoint, or plain process exit) can be re-run with the *same
configuration* — completed rounds are skipped (their persisted bug reports
and counters fold back into the result), the remaining rounds execute with
exactly the seeds they would have had in an uninterrupted run, and the
final coverage set, ``unique_plans``, and Table V rows are identical to the
uninterrupted campaign's.  Round seeds derive from each DBMS's position in the configured
``dbms_names`` list, so the list (and seed) must be the same across the
interrupted and resuming processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.dialects import EngineConfig, create_dialect
from repro.pipeline import PlanIngestService
from repro.testing.bound import SizeBoundChecker
from repro.testing.bugs import (
    BugReport,
    FaultyDialect,
    KnownBug,
    bugs_for,
    fold_reports,
    report_from_payload,
)
from repro.testing.cert import CardinalityRestrictionTester
from repro.testing.failures import SkipFailures
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
from repro.testing.qpg import NOVELTY_MODES, QPGConfig, QueryPlanGuidance

__all__ = ["BugReport", "CampaignResult", "TestingCampaign"]


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    ``unique_plans`` counts *globally* distinct structural fingerprints — the
    union of every QPG round's coverage set, not the per-DBMS sum — which is
    possible because fingerprints are canonical and stable across DBMS runs.
    """

    reports: List[BugReport] = field(default_factory=list)
    queries_generated: int = 0
    unique_plans: int = 0
    cert_pairs_checked: int = 0
    #: ``EXPLAIN ANALYZE`` queries checked by the intermediate-size-bound
    #: oracle.  Real DBMSs have no Table V bugs of the "bound" kind, so the
    #: oracle contributes no reports to a default campaign.
    bound_queries_checked: int = 0
    #: Statements the oracles skipped, and trigger plans left uncaptured, on
    #: an error that is not a ``ReproError`` — a defect of this program
    #: rather than a statement the DBMS rejected.  0 for a healthy campaign.
    unexpected_errors: int = 0
    #: The union of the per-round structural-fingerprint coverage sets,
    #: including coverage loaded from a persisted store when resuming.
    plan_fingerprints: Set[str] = field(default_factory=set)
    #: Conversions actually parsed vs. served from the conversion cache.
    conversions: int = 0
    conversion_cache_hits: int = 0
    #: Rounds completed by this run vs. skipped because an earlier
    #: (interrupted) run already marked them complete in the store.
    rounds_completed: int = 0
    rounds_skipped: int = 0
    #: Per-round result payloads as ``(round index, payload)`` pairs, for
    #: completed *and* restored rounds.  A sharded campaign's parent folds
    #: these back together in round order, so the merged Table V rows are
    #: byte-identical to a serial run's (dedupe keeps the first (dbms,
    #: bug id) occurrence, which depends on round order, not shard order).
    round_payloads: List[Tuple[int, dict]] = field(default_factory=list)
    #: The campaign store's exported contents (:meth:`CoverageStore.to_payload`),
    #: populated only when ``run(collect_store_payload=True)`` — the picklable
    #: store handoff from a sharded-campaign worker to its parent.
    store_payload: Optional[dict] = None
    #: Summed per-plan novelty rewards (nearest-covered-plan distances)
    #: across every QPG round; stays 0.0 under ``novelty="exact"``.
    novelty_reward_total: float = 0.0
    #: The campaign-level similarity index — the union of the per-round
    #: indexes, exported with :meth:`repro.similarity.PlanIndex.to_payload`.
    #: None under ``novelty="exact"``; picklable for the sharded handoff.
    index_payload: Optional[dict] = None

    def cluster_reports(self, *, threshold: Optional[float] = None):
        """Similarity-clustered triage of the campaign's bug reports.

        Returns :class:`repro.similarity.ReportCluster` groups over
        ``self.reports`` (see :func:`repro.similarity.cluster_reports`).
        Computed on demand — never shipped across process boundaries — so
        a sharded campaign's merged result clusters exactly like a serial
        run's: both recompute from the same folded, deduplicated reports.
        """
        from repro.similarity import DEFAULT_CLUSTER_THRESHOLD, cluster_reports

        if threshold is None:
            threshold = DEFAULT_CLUSTER_THRESHOLD
        return cluster_reports(self.reports, threshold=threshold)

    def by_dbms(self) -> Dict[str, int]:
        """Bug counts per DBMS."""
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.dbms] = counts.get(report.dbms, 0) + 1
        return counts

    def table5_rows(self) -> List[Dict[str, str]]:
        """Render the report in Table V's column layout."""
        return [
            {
                "DBMS": report.dbms,
                "Found by": report.found_by,
                "Bug ID": report.bug_id,
                "Status": report.status,
                "Severity": report.severity,
            }
            for report in self.reports
        ]


#: Backwards-compatible alias — report dedup now lives with the report
#: type in :mod:`repro.testing.bugs` so payload folding has no import cycle.
_dedupe = fold_reports


class TestingCampaign:
    """Runs QPG and CERT with UPlan against the three target DBMSs."""

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        dbms_names: Optional[List[str]] = None,
        seed: int = 1,
        queries_per_dbms: int = 150,
        cert_pairs_per_dbms: int = 60,
        bound_checks_per_dbms: int = 20,
        persist_to: Optional[str] = None,
        max_rounds: Optional[int] = None,
        prepared_cache: bool = True,
        executor: str = "vectorized",
        decorrelate: bool = True,
        optimize_joins: bool = True,
        novelty: str = "exact",
        novelty_threshold: float = 0.05,
        capture_trigger_plans: bool = True,
        dialect_factory: Optional[Callable[[str, Dict[str, object]], object]] = None,
    ) -> None:
        self.dbms_names = dbms_names or ["mysql", "postgresql", "tidb"]
        self.seed = seed
        self.queries_per_dbms = queries_per_dbms
        self.cert_pairs_per_dbms = cert_pairs_per_dbms
        self.bound_checks_per_dbms = bound_checks_per_dbms
        #: The dialects' settings, validated here.  Every one is
        #: semantically invisible in Table V and the query/pair counts; the
        #: executor and the prepared cache also leave coverage byte-identical,
        #: while ``decorrelate`` and ``optimize_joins`` change plans and so
        #: QPG's coverage universe (tests/test_engine_config.py pins all of
        #: it).
        self.engine_config = EngineConfig(
            executor=executor,
            prepared_cache=prepared_cache,
            decorrelate=decorrelate,
            optimize_joins=optimize_joins,
        )
        #: QPG novelty mode — ``"exact"`` (byte-identical to the
        #: pre-similarity campaigns) or ``"similarity"``
        #: (distance-to-nearest-covered-plan rewards; see
        #: :mod:`repro.testing.qpg`).  In similarity mode each round's
        #: :class:`~repro.similarity.PlanIndex` starts empty (the same
        #: process-independence rule as ``seen_fingerprints``) and the
        #: campaign merges the per-round indexes into
        #: ``result.index_payload`` — persisted as ``sim-*.jsonl`` sidecars
        #: next to the coverage store when ``persist_to=`` is set.
        if novelty not in NOVELTY_MODES:
            raise ValueError(
                f"unknown novelty mode {novelty!r}; expected one of {NOVELTY_MODES}"
            )
        self.novelty = novelty
        self.novelty_threshold = novelty_threshold
        #: Whether each bug report captures its trigger query's unified
        #: plan (``BugReport.trigger_plan``) for similarity triage.  The
        #: capture runs through a campaign-private converter hub after the
        #: oracles finish, so coverage sets, conversion counters, and
        #: Table V stay byte-identical whether it is on or off.
        self.capture_trigger_plans = capture_trigger_plans
        #: Directory for the durable coverage store; None keeps it in memory.
        self.persist_to = persist_to
        #: Stop (gracefully, between rounds) after this many executed
        #: rounds; a later run with the same configuration resumes.
        self.max_rounds = max_rounds
        #: Optional hook replacing how per-round dialects are built: called
        #: as ``dialect_factory(dbms_name, options)`` where ``options``
        #: carries the fields of :attr:`engine_config` as a plain dict.  The
        #: service-equivalence tests use it to route rounds through a
        #: loopback query service; the returned object only needs the
        #: dialect surface the oracles touch.
        self.dialect_factory = dialect_factory
        if max_rounds is not None and persist_to is None:
            # Without a durable store the completion marks die with the
            # process, so the remaining rounds would be unreachable: every
            # re-run would redo the same first rounds and stop again.
            raise ValueError("max_rounds requires persist_to= (resume needs a durable store)")

    def _round_label(self, index: int, dbms_name: str) -> str:
        """The store mark identifying one completed per-DBMS round.

        The label pins everything that determines the round's behaviour —
        DBMS, derived seed, and workload sizes — so a resumed campaign only
        skips rounds that an identically-configured run completed.  The
        novelty mode joins the label only when it is not ``"exact"``:
        exact-mode labels must stay byte-identical to pre-similarity
        campaigns so their persisted stores keep resuming.
        """
        label = (
            f"round:{dbms_name}:{self.seed + index}"
            f":{self.queries_per_dbms}:{self.cert_pairs_per_dbms}"
            f":{self.bound_checks_per_dbms}"
        )
        if self.novelty != "exact":
            label += f":novelty={self.novelty}:{self.novelty_threshold!r}"
        return label

    def _create_dialect(self, dbms_name: str):
        options = asdict(self.engine_config)
        if self.dialect_factory is not None:
            return self.dialect_factory(dbms_name, options)
        return create_dialect(dbms_name, **options)

    def run(
        self,
        only_indexes: Optional[Iterable[int]] = None,
        collect_store_payload: bool = False,
    ) -> CampaignResult:
        """Run the campaign and return the aggregated result.

        ``only_indexes`` restricts the run to the named round indexes
        (positions in ``dbms_names``); the other rounds are neither executed
        nor counted.  Because every round derives its seeds from its *index*
        — never from which rounds ran before it — a partition of the index
        space across processes reproduces the serial rounds exactly; this is
        the hook :class:`repro.parallel.ShardedCampaign` workers use.
        ``collect_store_payload`` additionally exports the coverage store's
        contents into ``result.store_payload`` before the store closes.
        """
        result = CampaignResult()
        # One ingest service shared by every round, over a private hub so
        # the reported conversion/cache counters are truly per-campaign.
        from repro.converters import ConverterHub

        ingest_service = PlanIngestService(
            hub=ConverterHub(), persist_to=self.persist_to
        )
        store = ingest_service.coverage
        campaign_index = None
        if self.novelty == "similarity":
            from repro.similarity import PlanIndex

            # The campaign-level index accumulates the per-round indexes;
            # with persist_to= it rides as sim-*.jsonl sidecars in the
            # coverage store's directory and resumes with it.
            campaign_index = PlanIndex(path=self.persist_to)
        try:
            self._run_rounds(
                result, ingest_service, store, only_indexes, campaign_index
            )
            if collect_store_payload:
                result.store_payload = store.to_payload()
        finally:
            # Completed rounds were checkpointed; close the store handles
            # (and any process pool) even when a round aborts mid-way.
            if campaign_index is not None:
                campaign_index.close()
            ingest_service.close()
        return result

    def _round_report_path(self, label: str) -> Optional[str]:
        """Where a completed round's results are persisted (durable only)."""
        if self.persist_to is None:
            return None
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).hexdigest()
        return os.path.join(self.persist_to, f"round-{digest}.json")

    def _persist_round(self, label: str, payload: dict) -> None:
        path = self._round_report_path(label)
        if path is None:
            return
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def _restore_round(
        self,
        result: CampaignResult,
        index: int,
        label: str,
        campaign_index=None,
    ) -> None:
        """Fold a previously-completed round's persisted results into
        *result*, so a resumed campaign returns the same Table V rows (not
        just the same coverage) as an uninterrupted run."""
        path = self._round_report_path(label)
        if path is None or not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        result.queries_generated += payload.get("queries_generated", 0)
        result.cert_pairs_checked += payload.get("cert_pairs_checked", 0)
        result.bound_queries_checked += payload.get("bound_queries_checked", 0)
        result.unexpected_errors += payload.get("unexpected_errors", 0)
        result.novelty_reward_total += payload.get("novelty_reward_total", 0.0)
        for row in payload.get("reports", []):
            result.reports.append(report_from_payload(row))
        if campaign_index is not None and "index" in payload:
            campaign_index.merge_payload(payload["index"])
        result.round_payloads.append((index, payload))

    def _capture_trigger_plan(
        self, result: CampaignResult, triage_hub, dialect, query: str
    ) -> Optional[dict]:
        """Best-effort unified-plan capture for a bug report's trigger query.

        Runs through *triage_hub* — a campaign-private converter hub, never
        the ingest service — after the oracle that filed the report has
        finished with *dialect*, so exact-mode coverage sets and conversion
        counters are byte-identical whether capture is on or off.
        """
        if triage_hub is None:
            return None
        # A query the dialect cannot re-explain still yields a report; it
        # just clusters as a singleton (no plan to compare).
        with SkipFailures() as skip:
            explain_format = triage_hub.converter(dialect.name).formats[0]
            output = dialect.explain(query, format=explain_format)
            plan = triage_hub.convert(dialect.name, output.text, explain_format)
            return plan.to_dict()
        result.unexpected_errors += skip.unexpected
        return None

    def _run_rounds(
        self, result, ingest_service, store, only_indexes=None, campaign_index=None
    ) -> None:
        if only_indexes is not None:
            only_indexes = set(only_indexes)
        triage_hub = None
        if self.capture_trigger_plans:
            from repro.converters import ConverterHub

            triage_hub = ConverterHub()
        for index, dbms_name in enumerate(self.dbms_names):
            if only_indexes is not None and index not in only_indexes:
                continue
            if self.max_rounds is not None and result.rounds_completed >= self.max_rounds:
                break
            label = self._round_label(index, dbms_name)
            if store.is_marked(label):
                result.rounds_skipped += 1
                self._restore_round(result, index, label, campaign_index)
                continue
            round_start = {
                "reports": len(result.reports),
                "queries": result.queries_generated,
                "pairs": result.cert_pairs_checked,
                "bound_queries": result.bound_queries_checked,
                "unexpected_errors": result.unexpected_errors,
            }
            logic_bugs = bugs_for(dbms_name, "logic")
            performance_bugs = bugs_for(dbms_name, "performance")
            dialect = FaultyDialect(
                self._create_dialect(dbms_name),
                logic_bugs=logic_bugs,
                performance_bugs=performance_bugs,
            )

            # --- QPG with the TLP oracle ------------------------------------
            generator = RandomQueryGenerator(
                seed=self.seed + index, config=GeneratorConfig(max_tables=2)
            )
            round_index = None
            if self.novelty == "similarity":
                from repro.similarity import PlanIndex

                # Fresh per round, like seen_fingerprints: round behaviour
                # must not depend on which process runs the round, so a
                # sharded campaign reproduces the serial one exactly.
                round_index = PlanIndex()
            qpg = QueryPlanGuidance(
                dialect,
                generator,
                config=QPGConfig(
                    queries_per_round=self.queries_per_dbms,
                    novelty=self.novelty,
                    novelty_threshold=self.novelty_threshold,
                ),
                ingest_service=ingest_service,
                plan_index=round_index,
            )
            statistics = qpg.run()
            result.queries_generated += statistics.queries_generated
            result.unexpected_errors += statistics.unexpected_errors
            # Hub-level fast-path hits never reach the ingest service's
            # counters; account them here so every observed plan is either a
            # conversion or a cache hit.
            result.conversion_cache_hits += statistics.fast_path_hits
            result.plan_fingerprints |= qpg.seen_fingerprints
            if statistics.oracle_violations and logic_bugs:
                for position, query in enumerate(statistics.violating_queries):
                    bug = logic_bugs[min(position, len(logic_bugs) - 1)]
                    result.reports.append(
                        BugReport(
                            dbms=dbms_name,
                            found_by="QPG",
                            bug_id=bug.bug_id,
                            status=bug.status,
                            severity=bug.severity,
                            trigger_query=query,
                            trigger_plan=self._capture_trigger_plan(
                                result, triage_hub, dialect, query
                            ),
                        )
                    )

            # --- CERT ----------------------------------------------------------
            cert_generator = RandomQueryGenerator(
                seed=self.seed + 100 + index, config=GeneratorConfig(max_tables=2)
            )
            cert_dialect = FaultyDialect(
                self._create_dialect(dbms_name),
                logic_bugs=(),
                performance_bugs=performance_bugs,
            )
            cert = CardinalityRestrictionTester(cert_dialect, cert_generator)
            cert_statistics = cert.run(pairs=self.cert_pairs_per_dbms)
            result.cert_pairs_checked += cert_statistics.pairs_checked
            result.unexpected_errors += cert_statistics.unexpected_errors
            if cert_statistics.violations and performance_bugs:
                for position, violation in enumerate(cert_statistics.violations):
                    bug = performance_bugs[min(position, len(performance_bugs) - 1)]
                    result.reports.append(
                        BugReport(
                            dbms=dbms_name,
                            found_by="CERT",
                            bug_id=bug.bug_id,
                            status=bug.status,
                            severity=bug.severity,
                            trigger_query=violation.restricted_query,
                            trigger_plan=self._capture_trigger_plan(
                                result, triage_hub, cert_dialect, violation.restricted_query
                            ),
                        )
                    )

            # --- Bound oracle -------------------------------------------------
            # Intermediate-size bounds double as a runtime oracle: a correct
            # engine can never report an actual operator row count above its
            # proven bound, so any EXPLAIN ANALYZE violation is a bug.  No
            # real DBMS in Table V has a "bound"-kind bug, so this section
            # adds zero reports to default campaigns — it exists so seeded
            # bound faults (tests) surface through the same reporting path.
            bound_bugs = bugs_for(dbms_name, "bound")
            bound_generator = RandomQueryGenerator(
                seed=self.seed + 200 + index, config=GeneratorConfig(max_tables=2)
            )
            bound_dialect = FaultyDialect(
                self._create_dialect(dbms_name),
                logic_bugs=(),
                performance_bugs=(),
                bound_bugs=bound_bugs,
            )
            bound_checker = SizeBoundChecker(bound_dialect, bound_generator)
            bound_statistics = bound_checker.run(queries=self.bound_checks_per_dbms)
            result.bound_queries_checked += bound_statistics.queries_checked
            result.unexpected_errors += bound_statistics.unexpected_errors
            if bound_statistics.violations and bound_bugs:
                for position, bound_violation in enumerate(bound_statistics.violations):
                    bug = bound_bugs[min(position, len(bound_bugs) - 1)]
                    result.reports.append(
                        BugReport(
                            dbms=dbms_name,
                            found_by="Bound",
                            bug_id=bug.bug_id,
                            status=bug.status,
                            severity=bug.severity,
                            trigger_query=bound_violation.query,
                            trigger_plan=self._capture_trigger_plan(
                                result, triage_hub, bound_dialect, bound_violation.query
                            ),
                        )
                    )

            # The round is complete: persist its results, mark it, and
            # atomically checkpoint the store, so a stop/crash from here on
            # resumes after this round with nothing lost — coverage *and*
            # the round's Table V rows.
            round_payload = {
                "reports": [
                    dict(vars(report))
                    for report in result.reports[round_start["reports"]:]
                ],
                "queries_generated": result.queries_generated
                - round_start["queries"],
                "cert_pairs_checked": result.cert_pairs_checked
                - round_start["pairs"],
                "bound_queries_checked": result.bound_queries_checked
                - round_start["bound_queries"],
                "unexpected_errors": result.unexpected_errors
                - round_start["unexpected_errors"],
            }
            if campaign_index is not None:
                # The per-round index rides in the payload (JSON emits
                # repr-faithful doubles, so vectors round-trip exactly) and
                # folds into the campaign-level sidecar before the round is
                # marked, matching the store's checkpoint granularity.
                round_payload["novelty_reward_total"] = statistics.novelty_reward_total
                round_payload["index"] = round_index.to_payload()
                result.novelty_reward_total += statistics.novelty_reward_total
                campaign_index.merge_payload(round_payload["index"])
                campaign_index.flush()
            self._persist_round(label, round_payload)
            result.round_payloads.append((index, round_payload))
            store.mark(label)
            result.rounds_completed += 1
            ingest_service.checkpoint()

        # Coverage is the union over every completed round, including
        # rounds completed by earlier runs of an interrupted campaign
        # (their structural fingerprints were persisted via the store).
        result.plan_fingerprints |= store.structural_fingerprints()
        result.unique_plans = len(result.plan_fingerprints)
        result.conversions = ingest_service.stats.conversions
        result.conversion_cache_hits += ingest_service.stats.cache_hits
        if campaign_index is not None:
            result.index_payload = campaign_index.to_payload()
        result.reports = fold_reports(result.reports)
        # Order like Table V: MySQL, PostgreSQL, TiDB; QPG before CERT.
        order = {name: position for position, name in enumerate(self.dbms_names)}
        result.reports.sort(key=lambda report: (order.get(report.dbms, 9), report.found_by != "QPG", report.bug_id))
