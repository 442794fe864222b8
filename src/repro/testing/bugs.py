"""Seeded fault injection and the known-bug registry (Table V).

The paper evaluates QPG and CERT on real MySQL / PostgreSQL / TiDB
installations and reports 17 previously unknown bugs (Table V).  Without those
installations we reproduce the *shape* of that experiment by planting
realistic defects into the simulated dialects:

* **logic bugs** — the executor silently drops or duplicates rows for queries
  that hit a trigger condition (e.g. an ``IN (GREATEST(...))`` predicate with
  an index on the column — Listing 3's MySQL bug 113302);
* **performance bugs** — the optimizer's cardinality estimate violates
  monotonicity for restricted queries, which CERT flags;
* **bound bugs** — ``EXPLAIN ANALYZE`` reports an operator producing more
  rows than its statically proven intermediate-size bound, which the Bound
  oracle flags (Table V has none of these; injection is test-only).

Each injected fault carries the corresponding bug id from Table V, so the
campaign report can be compared 1:1 with the paper's table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

from repro.dialects.base import ExplainOutput, RelationalDialect


@dataclass(frozen=True)
class KnownBug:
    """One entry of Table V."""

    dbms: str
    found_by: str  # "QPG" or "CERT"
    bug_id: str
    status: str
    severity: str
    kind: str  # "logic" or "performance"


@dataclass
class BugReport:
    """One row of the campaign's bug report (mirrors Table V).

    ``trigger_plan`` optionally carries the unified plan of the trigger
    query (a :meth:`~repro.core.model.UnifiedPlan.to_dict` payload captured
    when the report was filed) — the input to similarity-clustered triage
    (:func:`repro.similarity.cluster_reports`).  It rides through JSON
    round payloads and pickled worker results unchanged; it never appears
    in Table V rows.  Cluster *assignments* are deliberately not a report
    field: they are recomputed from the folded report list wherever needed,
    so they cannot go stale across a sharded campaign's process boundary.
    """

    dbms: str
    found_by: str
    bug_id: str
    status: str
    severity: str
    trigger_query: str = ""
    trigger_plan: Optional[dict] = None


#: The BugReport field names — the whitelist payload restoration uses.
_REPORT_FIELDS = tuple(field.name for field in fields(BugReport))


def report_from_payload(row: Dict[str, object]) -> BugReport:
    """Rebuild a :class:`BugReport` from a persisted round-payload row.

    Unknown keys are dropped and missing optional fields default, so
    payloads written by older campaigns (without ``trigger_plan``) and by
    newer ones (with fields this version does not know) both restore
    instead of raising ``TypeError`` inside a resume or a sharded fold.
    """
    return BugReport(**{key: row[key] for key in _REPORT_FIELDS if key in row})


def fold_reports(reports: Sequence[BugReport]) -> List[BugReport]:
    """Deduplicate *reports*, keeping the first ``(dbms, bug_id)`` occurrence.

    The fold is order-sensitive by design — campaigns fold in round-index
    order so a sharded run keeps exactly the rows a serial run keeps — and
    it keeps the first occurrence *whole*, including its captured
    ``trigger_plan``, so triage clusters computed after the fold see the
    same plans in every process.
    """
    seen = set()
    unique: List[BugReport] = []
    for report in reports:
        key = (report.dbms, report.bug_id)
        if key not in seen:
            seen.add(key)
            unique.append(report)
    return unique


#: Table V of the paper — the 17 previously unknown, unique bugs.
KNOWN_BUGS: List[KnownBug] = [
    KnownBug("mysql", "QPG", "113302", "Confirmed", "Critical", "logic"),
    KnownBug("mysql", "QPG", "113304", "Confirmed", "Critical", "logic"),
    KnownBug("mysql", "QPG", "113317", "Confirmed", "Critical", "logic"),
    KnownBug("mysql", "QPG", "114204", "Confirmed", "Serious", "logic"),
    KnownBug("mysql", "QPG", "114217", "Confirmed", "Serious", "logic"),
    KnownBug("mysql", "QPG", "114218", "Confirmed", "Serious", "logic"),
    KnownBug("mysql", "CERT", "114237", "Confirmed", "Performance", "performance"),
    KnownBug("postgresql", "CERT", "Email", "Pending", "Performance", "performance"),
    KnownBug("tidb", "QPG", "49107", "Fixed", "Major", "logic"),
    KnownBug("tidb", "QPG", "49108", "Confirmed", "Major", "logic"),
    KnownBug("tidb", "QPG", "49109", "Fixed", "Major", "logic"),
    KnownBug("tidb", "QPG", "49110", "Confirmed", "Major", "logic"),
    KnownBug("tidb", "QPG", "49131", "Confirmed", "Major", "logic"),
    KnownBug("tidb", "QPG", "51490", "Confirmed", "Moderate", "logic"),
    KnownBug("tidb", "QPG", "51523", "Confirmed", "Moderate", "logic"),
    KnownBug("tidb", "CERT", "51524", "Confirmed", "Minor", "performance"),
    KnownBug("tidb", "CERT", "51525", "Confirmed", "Minor", "performance"),
]


def bugs_for(dbms: str, kind: Optional[str] = None) -> List[KnownBug]:
    """Return the Table V bugs of *dbms*, optionally filtered by kind."""
    return [
        bug
        for bug in KNOWN_BUGS
        if bug.dbms == dbms.lower() and (kind is None or bug.kind == kind)
    ]


class FaultyDialect:
    """A simulated DBMS with seeded logic and cardinality-estimation faults.

    The wrapper delegates everything to the underlying dialect but perturbs
    (a) result sets of trigger queries — a *logic* fault, and (b) estimated
    cardinalities of restricted trigger queries — a *performance* fault.  The
    trigger is a stable hash of the query text, so campaigns are
    deterministic, and each distinct trigger bucket is associated with one of
    the DBMS's known bug ids.
    """

    def __init__(
        self,
        dialect: RelationalDialect,
        logic_bugs: Sequence[KnownBug] = (),
        performance_bugs: Sequence[KnownBug] = (),
        bound_bugs: Sequence[KnownBug] = (),
        trigger_rate: int = 7,
    ) -> None:
        self.dialect = dialect
        self.logic_bugs = list(logic_bugs)
        self.performance_bugs = list(performance_bugs)
        #: Faults that make ``EXPLAIN ANALYZE`` report an operator producing
        #: more rows than its proven intermediate-size bound — the class of
        #: engine bug the campaign's "Bound" oracle flags.  Table V has no
        #: bugs of this kind (the paper predates the oracle), so default
        #: campaigns pass ``()`` and the oracle stays silent.
        self.bound_bugs = list(bound_bugs)
        self.trigger_rate = max(trigger_rate, 1)

    # -- delegation -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.dialect.name

    def __getattr__(self, attribute: str):
        return getattr(self.dialect, attribute)

    # -- fault triggers -----------------------------------------------------------

    def _bucket(self, query: str) -> int:
        digest = hashlib.sha256(query.encode("utf-8")).hexdigest()
        return int(digest[:8], 16)

    def logic_fault_for(self, query: str) -> Optional[KnownBug]:
        """Return the logic bug triggered by *query*, if any."""
        if not self.logic_bugs or not query.upper().lstrip().startswith("SELECT"):
            return None
        bucket = self._bucket(query)
        if bucket % self.trigger_rate == 0:
            return self.logic_bugs[bucket % len(self.logic_bugs)]
        # Listing 3: index-backed IN(GREATEST(...)) look-ups are always wrong.
        if "IN (GREATEST(" in query.upper() and self.dialect.database.index_names():
            return self.logic_bugs[0]
        return None

    def performance_fault_for(self, query: str) -> Optional[KnownBug]:
        """Return the performance bug triggered by *query*, if any."""
        if not self.performance_bugs:
            return None
        bucket = self._bucket(query)
        if bucket % (self.trigger_rate + 4) == 0:
            return self.performance_bugs[bucket % len(self.performance_bugs)]
        return None

    def bound_fault_for(self, query: str) -> Optional[KnownBug]:
        """Return the intermediate-size-bound bug triggered by *query*, if any."""
        if not self.bound_bugs or not query.upper().lstrip().startswith("SELECT"):
            return None
        bucket = self._bucket(query)
        if bucket % (self.trigger_rate + 9) == 0:
            return self.bound_bugs[bucket % len(self.bound_bugs)]
        return None

    # -- perturbed behaviour ---------------------------------------------------------

    def execute(self, statement: str):
        rows = self.dialect.execute(statement)
        fault = self.logic_fault_for(statement)
        if fault is not None and rows:
            # Silently drop the last row — the class of wrong-result bug QPG+TLP find.
            return rows[:-1]
        return rows

    def explain(self, statement: str, format: Optional[str] = None, analyze: bool = False) -> ExplainOutput:
        output = self.dialect.explain(statement, format=format, analyze=analyze)
        if analyze:
            fault = self.bound_fault_for(statement)
            if fault is not None:
                # A faulty executor leaks more rows out of an operator than
                # its proven size bound allows.  Deterministic values keep
                # campaign reports reproducible across runs.
                bucket = self._bucket(statement)
                bound = float(10 + bucket % 90)
                violation = {
                    "operator": "Hash Join",
                    "size_bound": bound,
                    "actual_rows": int(bound) + 1 + bucket % 1000,
                }
                output = ExplainOutput(
                    dbms=output.dbms,
                    format=output.format,
                    text=output.text,
                    query=output.query,
                    bound_violations=tuple(output.bound_violations) + (violation,),
                )
        return output

    def estimated_root_rows(self, statement: str) -> float:
        """Root cardinality estimate, perturbed for performance-fault triggers."""
        inner = getattr(self.dialect, "estimated_root_rows", None)
        if inner is not None:
            # The wrapped dialect exposes its own estimator (e.g. the service
            # adapter, whose planner lives on the other side of the wire) —
            # perturb that estimate instead of planning locally.
            estimate = max(float(inner(statement)), 1.0)
        else:
            physical = self.dialect.planner.plan_statement(
                __import__("repro.sqlparser.parser", fromlist=["parse_one"]).parse_one(statement)
            )
            estimate = max(physical.estimated_rows, 1.0)
        fault = self.performance_fault_for(statement)
        if fault is not None:
            # A restricted query suddenly gets a *larger* estimate: the
            # monotonicity violation CERT is designed to catch.
            estimate *= 25.0
        return estimate
