"""Intermediate-size-bound testing on ``EXPLAIN ANALYZE`` output.

The optimizer derives a *proven* upper bound on the number of rows each plan
operator can produce (:mod:`repro.optimizer.bounds`, after Chen & Schneider,
arXiv 2412.13104).  The bound is sound by construction: it is computed from
actual base-table row counts and declared key constraints, never from
statistics.  A correct engine therefore can never report an actual operator
row count above its bound — if ``EXPLAIN ANALYZE`` does, either the
optimizer's bound derivation or the executor's row accounting is broken.

That turns the bound into a *test oracle* in the spirit of the paper's
QPG/CERT campaigns: run ``EXPLAIN ANALYZE`` on generated queries and flag any
plan whose runtime counters exceed a proven bound.  Unlike CERT the oracle
needs no query pair and no tolerance — a single query and an exact comparison
suffice, because the bound is a guarantee rather than an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.testing.failures import SkipFailures
from repro.testing.generator import RandomQueryGenerator


@dataclass
class BoundViolation:
    """One operator whose actual row count exceeded its proven size bound."""

    dbms: str
    query: str
    operator: str
    size_bound: float
    actual_rows: int


@dataclass
class BoundStatistics:
    """Aggregate results of a size-bound oracle run."""

    queries_checked: int = 0
    violations: List[BoundViolation] = field(default_factory=list)
    #: Statements skipped on an error that is not a ``ReproError``.
    unexpected_errors: int = 0


class SizeBoundChecker:
    """The DBMS-agnostic intermediate-size-bound loop over a simulated DBMS."""

    def __init__(self, dialect, generator: RandomQueryGenerator) -> None:
        self.dialect = dialect
        self.generator = generator
        self.statistics = BoundStatistics()

    def check_query(self, query: str) -> List[BoundViolation]:
        """Run ``EXPLAIN ANALYZE`` on *query* and collect bound violations."""
        output = self.dialect.explain(query, analyze=True)
        self.statistics.queries_checked += 1
        violations = [
            BoundViolation(
                dbms=self.dialect.name,
                query=query,
                operator=str(entry.get("operator", "?")),
                size_bound=float(entry.get("size_bound", 0.0)),
                actual_rows=int(entry.get("actual_rows", 0)),
            )
            for entry in getattr(output, "bound_violations", ())
        ]
        self.statistics.violations.extend(violations)
        return violations

    def run(self, queries: int = 100, setup_statements: Optional[List[str]] = None) -> BoundStatistics:
        """Generate and check *queries* random SELECT queries."""
        skip = SkipFailures.load(
            self.dialect, setup_statements or self.generator.schema_statements()
        )
        for _ in range(queries):
            query = self.generator.select_query()
            with skip:
                self.check_query(query)
        self.statistics.unexpected_errors += skip.unexpected
        return self.statistics
