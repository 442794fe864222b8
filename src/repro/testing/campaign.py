"""The bounded testing campaign that regenerates Table V.

The paper ran QPG and CERT for 24 hours against MySQL, PostgreSQL, and TiDB
and reported 17 previously unknown bugs.  The campaign here runs the same two
oracles, plus the intermediate-size-bound oracle, against the simulated
dialects with seeded faults (:mod:`repro.testing.bugs`) for a bounded number
of iterations, attributing every detected violation to the corresponding
known bug id, so the resulting report has the same rows as Table V.

A round runs each oracle of ``TestingCampaign._ORACLES`` on a fresh
fault-injected dialect and returns one payload of reports and counters.
Fresh, restored and sharded rounds all fold into the result through
:meth:`CampaignResult.add_round`; :meth:`CampaignResult.finish` ends the fold.

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

from repro.converters import ConverterHub
from repro.dialects import EngineConfig, create_dialect
from repro.pipeline import PlanIngestService
from repro.similarity import PlanIndex
from repro.testing.bound import SizeBoundChecker
from repro.testing.bugs import (
    BugReport,
    FaultyDialect,
    bugs_for,
    fold_reports,
    report_from_payload,
)
from repro.testing.cert import CardinalityRestrictionTester
from repro.testing.failures import SkipFailures
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
from repro.testing.qpg import NOVELTY_MODES, QPGConfig, QueryPlanGuidance

__all__ = ["BugReport", "CampaignResult", "TestingCampaign"]


#: The counters a round payload carries; :meth:`CampaignResult.add_round`
#: adds them up.
_ROUND_COUNTERS = (
    "queries_generated",
    "cert_pairs_checked",
    "bound_queries_checked",
    "unexpected_errors",
    "novelty_reward_total",
)


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

    def add_round(self, index: int, payload: dict) -> None:
        """Fold one round's payload into the result: its counters, its
        reports, and the payload itself under its round *index*."""
        for key in _ROUND_COUNTERS:
            setattr(self, key, getattr(self, key) + payload.get(key, 0))
        self.reports.extend(report_from_payload(row) for row in payload.get("reports", []))
        self.round_payloads.append((index, payload))

    def finish(self, dbms_names: List[str], store) -> None:
        """Complete the fold once every round is in.

        Coverage becomes the union with *store*'s structural fingerprints,
        which include rounds completed by earlier runs of an interrupted
        campaign.  Reports keep the first ``(dbms, bug id)`` occurrence in
        round order and sort like Table V: by position in *dbms_names*,
        QPG before the other oracles, then by bug id.
        """
        self.plan_fingerprints |= store.structural_fingerprints()
        self.unique_plans = len(self.plan_fingerprints)
        self.reports = fold_reports(self.reports)
        order = {name: position for position, name in enumerate(dbms_names)}
        self.reports.sort(
            key=lambda report: (order.get(report.dbms, 9), report.found_by != "QPG", report.bug_id)
        )

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


class TestingCampaign:
    """Runs the QPG, CERT and Bound oracles with UPlan against the three
    target DBMSs."""

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
        ingest_service = PlanIngestService(
            hub=ConverterHub(), persist_to=self.persist_to
        )
        store = ingest_service.coverage
        campaign_index = None
        if self.novelty == "similarity":
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

    def _load_round(self, label: str) -> Optional[dict]:
        """A completed round's persisted payload (None when it left none),
        so a resumed campaign returns the same Table V rows as a whole run."""
        path = self._round_report_path(label)
        if path is None or not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _capture_trigger_plan(
        self, payload: dict, triage_hub, dialect, query: str
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
        payload["unexpected_errors"] += skip.unexpected
        return None

    def _run_rounds(
        self, result, ingest_service, store, only_indexes=None, campaign_index=None
    ) -> None:
        if only_indexes is not None:
            only_indexes = set(only_indexes)
        triage_hub = ConverterHub() if self.capture_trigger_plans else None
        for index, dbms_name in enumerate(self.dbms_names):
            if only_indexes is not None and index not in only_indexes:
                continue
            if self.max_rounds is not None and result.rounds_completed >= self.max_rounds:
                break
            label = self._round_label(index, dbms_name)
            if store.is_marked(label):
                result.rounds_skipped += 1
                payload = self._load_round(label)
                if payload is not None:
                    if campaign_index is not None and "index" in payload:
                        campaign_index.merge_payload(payload["index"])
                    result.add_round(index, payload)
                continue
            payload = self._run_round(index, dbms_name, ingest_service, triage_hub, result)
            if campaign_index is not None:
                # The per-round index folds into the campaign-level sidecar
                # before the round is marked, matching the store's
                # checkpoint granularity.
                campaign_index.merge_payload(payload["index"])
                campaign_index.flush()
            # The round is complete: persist its results, mark it, and
            # atomically checkpoint the store, so a stop/crash from here on
            # resumes after this round with nothing lost — coverage *and*
            # the round's Table V rows.
            self._persist_round(label, payload)
            result.add_round(index, payload)
            store.mark(label)
            result.rounds_completed += 1
            ingest_service.checkpoint()

        result.conversions = ingest_service.stats.conversions
        result.conversion_cache_hits += ingest_service.stats.cache_hits
        if campaign_index is not None:
            result.index_payload = campaign_index.to_payload()
        result.finish(self.dbms_names, store)

    def _run_round(self, index, dbms_name, ingest_service, triage_hub, result) -> dict:
        """Run every oracle of one per-DBMS round; return the round payload.

        Each oracle gets its own fault-injected dialect and a generator
        seeded from the round *index*, never from which rounds ran before,
        so any process reproduces the round.  Its trigger queries become
        reports against the DBMS's bugs of the oracle's first fault kind.
        """
        payload = {
            "reports": [],
            "queries_generated": 0,
            "cert_pairs_checked": 0,
            "bound_queries_checked": 0,
            "unexpected_errors": 0,
        }
        for found_by, kinds, seed_offset, runner in self._ORACLES:
            dialect = FaultyDialect(
                self._create_dialect(dbms_name),
                **{f"{kind}_bugs": bugs_for(dbms_name, kind) for kind in kinds},
            )
            generator = RandomQueryGenerator(
                seed=self.seed + seed_offset + index, config=GeneratorConfig(max_tables=2)
            )
            triggers, counters = runner(self, dialect, generator, ingest_service, result)
            payload["unexpected_errors"] += counters.pop("unexpected_errors")
            payload.update(counters)
            bugs = bugs_for(dbms_name, kinds[0])
            if not bugs:
                continue
            for position, query in enumerate(triggers):
                bug = bugs[min(position, len(bugs) - 1)]
                report = BugReport(
                    dbms=dbms_name,
                    found_by=found_by,
                    bug_id=bug.bug_id,
                    status=bug.status,
                    severity=bug.severity,
                    trigger_query=query,
                    trigger_plan=self._capture_trigger_plan(
                        payload, triage_hub, dialect, query
                    ),
                )
                payload["reports"].append(dict(vars(report)))
        return payload

    # Each runner runs one oracle over its dialect and generator and returns
    # ``(trigger queries, counters)``; the counters are round-payload keys.

    def _run_qpg(self, dialect, generator, ingest_service, result):
        """QPG with the TLP oracle; its coverage joins *result* directly."""
        # Fresh per round, like seen_fingerprints: round behaviour must not
        # depend on which process runs the round, so a sharded campaign
        # reproduces the serial one exactly.
        round_index = PlanIndex() if self.novelty == "similarity" else None
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
        # Hub-level fast-path hits never reach the ingest service's
        # counters; account them here so every observed plan is either a
        # conversion or a cache hit.
        result.conversion_cache_hits += statistics.fast_path_hits
        result.plan_fingerprints |= qpg.seen_fingerprints
        counters = {
            "queries_generated": statistics.queries_generated,
            "unexpected_errors": statistics.unexpected_errors,
        }
        if round_index is not None:
            # The per-round index rides in the payload: JSON emits
            # repr-faithful doubles, so vectors round-trip exactly.
            counters["novelty_reward_total"] = statistics.novelty_reward_total
            counters["index"] = round_index.to_payload()
        return statistics.violating_queries, counters

    def _run_cert(self, dialect, generator, ingest_service, result):
        statistics = CardinalityRestrictionTester(dialect, generator).run(
            pairs=self.cert_pairs_per_dbms
        )
        return [violation.restricted_query for violation in statistics.violations], {
            "cert_pairs_checked": statistics.pairs_checked,
            "unexpected_errors": statistics.unexpected_errors,
        }

    def _run_bound(self, dialect, generator, ingest_service, result):
        # Intermediate-size bounds double as a runtime oracle: a correct
        # engine can never report an actual operator row count above its
        # proven bound.  No real DBMS in Table V has a "bound"-kind bug, so
        # this oracle files no reports in default campaigns; seeded bound
        # faults (tests) surface through the same filing loop.
        statistics = SizeBoundChecker(dialect, generator).run(
            queries=self.bound_checks_per_dbms
        )
        return [violation.query for violation in statistics.violations], {
            "bound_queries_checked": statistics.queries_checked,
            "unexpected_errors": statistics.unexpected_errors,
        }

    #: The oracles of a round, run in this order: the ``found_by`` name of
    #: their reports, the fault kinds their dialect carries (reports name
    #: bugs of the first kind), the offset of their generator's seed, and
    #: their runner.  A new campaign oracle is one more row.
    _ORACLES = (
        ("QPG", ("logic", "performance"), 0, _run_qpg),
        ("CERT", ("performance",), 100, _run_cert),
        ("Bound", ("bound",), 200, _run_bound),
    )
