"""Cardinality Estimation Restriction Testing (CERT) on UPlan.

CERT finds performance issues by comparing estimated cardinalities: if query
``Q'`` is strictly more restrictive than ``Q`` (an additional conjunct in the
WHERE clause), its estimated cardinality must not be larger.  The estimates
are read from the Cardinality properties of the unified query plan, so one
implementation covers every convertible DBMS (Figure 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.converters import converter_for
from repro.core.categories import PropertyCategory
from repro.core.model import UnifiedPlan
from repro.testing.failures import SkipFailures
from repro.testing.generator import RandomQueryGenerator

#: How much larger than the base estimate a restricted query's estimate may
#: be before CERT reports it.
TOLERANCE = 1.05


@dataclass
class CERTViolation:
    """One potential performance issue found by CERT."""

    dbms: str
    query: str
    restricted_query: str
    base_estimate: float
    restricted_estimate: float

    @property
    def ratio(self) -> float:
        """How much larger the restricted estimate is than the base estimate."""
        return self.restricted_estimate / max(self.base_estimate, 1e-9)


@dataclass
class CERTStatistics:
    """Aggregate results of a CERT run."""

    pairs_checked: int = 0
    violations: List[CERTViolation] = field(default_factory=list)
    #: Statements skipped on an error that is not a ``ReproError``.
    unexpected_errors: int = 0


def root_cardinality_estimate(plan: UnifiedPlan) -> Optional[float]:
    """Extract the root-level estimated cardinality from a unified plan."""
    nodes = plan.nodes()
    for node in nodes:
        for prop in node.properties_in(PropertyCategory.CARDINALITY):
            if isinstance(prop.value, (int, float)):
                return float(prop.value)
    for prop in plan.properties:
        if prop.category is PropertyCategory.CARDINALITY and isinstance(prop.value, (int, float)):
            return float(prop.value)
    return None


class CardinalityRestrictionTester:
    """The DBMS-agnostic CERT loop over a simulated DBMS."""

    def __init__(self, dialect, generator: RandomQueryGenerator) -> None:
        self.dialect = dialect
        self.generator = generator
        self.converter = converter_for(dialect.name)
        self.explain_format = self.converter.formats[0]
        self.statistics = CERTStatistics()

    def estimate(self, query: str) -> Optional[float]:
        """Return the estimated root cardinality of *query*."""
        # Fault-injected dialects expose a direct estimate hook so that seeded
        # cardinality bugs are visible regardless of the serialized format.
        if hasattr(self.dialect, "estimated_root_rows"):
            return float(self.dialect.estimated_root_rows(query))
        output = self.dialect.explain(query, format=self.explain_format)
        plan = self.converter.convert(output.text, format=self.explain_format)
        return root_cardinality_estimate(plan)

    def check_pair(self, query: str, restricted_query: str) -> Optional[CERTViolation]:
        """Check one (query, restricted query) pair for monotonicity."""
        base = self.estimate(query)
        restricted = self.estimate(restricted_query)
        self.statistics.pairs_checked += 1
        if base is None or restricted is None:
            return None
        if restricted > base * TOLERANCE:
            violation = CERTViolation(
                dbms=self.dialect.name,
                query=query,
                restricted_query=restricted_query,
                base_estimate=base,
                restricted_estimate=restricted,
            )
            self.statistics.violations.append(violation)
            return violation
        return None

    def run(self, pairs: int = 100, setup_statements: Optional[List[str]] = None) -> CERTStatistics:
        """Generate and check *pairs* random (query, restricted query) pairs."""
        skip = SkipFailures.load(
            self.dialect, setup_statements or self.generator.schema_statements()
        )
        for _ in range(pairs):
            query = self.generator.select_query()
            table = self.generator.random.choice(self.generator.tables)
            restricted = self.generator.restricted_query(query, table)
            with skip:
                self.check_pair(query, restricted)
        self.statistics.unexpected_errors += skip.unexpected
        return self.statistics
