"""Physical plan representation shared by the optimizer, executor, and dialects.

A physical plan is a tree of :class:`PhysicalNode` objects.  Each node carries

* an :class:`OpKind` describing the physical algorithm,
* an ``info`` mapping with operator-specific details (table names, predicates,
  join keys, …) referencing AST expressions where applicable,
* optimizer estimates (row count, startup/total cost, row width), and
* actual execution statistics recorded when the node is run with
  ``analyze=True``.

The simulated DBMS dialects translate this dialect-neutral tree into their
DBMS-specific serialized query plans; the executor interprets it directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence


class OpKind(enum.Enum):
    """Physical operator kinds produced by the planner."""

    # Producers
    SEQ_SCAN = "SeqScan"
    INDEX_SCAN = "IndexScan"
    INDEX_ONLY_SCAN = "IndexOnlyScan"
    VALUES = "Values"
    SUBQUERY_SCAN = "SubqueryScan"
    RESULT = "Result"
    # Joins
    NESTED_LOOP_JOIN = "NestedLoopJoin"
    HASH_JOIN = "HashJoin"
    MERGE_JOIN = "MergeJoin"
    SEMI_JOIN = "SemiJoin"
    ANTI_JOIN = "AntiJoin"
    # Folders
    HASH_AGGREGATE = "HashAggregate"
    SORT_AGGREGATE = "SortAggregate"
    WINDOW = "Window"
    # Combinators
    SORT = "Sort"
    TOP_N = "TopN"
    LIMIT = "Limit"
    DISTINCT = "Distinct"
    APPEND = "Append"
    UNION = "Union"
    INTERSECT = "Intersect"
    EXCEPT = "Except"
    # Projectors
    PROJECT = "Project"
    # Executors
    FILTER = "Filter"
    MATERIALIZE = "Materialize"
    GATHER = "Gather"
    HASH_BUILD = "HashBuild"
    # Consumers
    INSERT = "Insert"
    UPDATE = "Update"
    DELETE = "Delete"
    CREATE_TABLE = "CreateTable"
    CREATE_INDEX = "CreateIndex"
    DROP_TABLE = "DropTable"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Operator kinds that read base data (leaves of the plan).
PRODUCER_KINDS = frozenset(
    {
        OpKind.SEQ_SCAN,
        OpKind.INDEX_SCAN,
        OpKind.INDEX_ONLY_SCAN,
        OpKind.VALUES,
        OpKind.SUBQUERY_SCAN,
        OpKind.RESULT,
    }
)

#: ``info`` keys under which the planner attaches predicate-subquery plans to
#: the node that evaluates them.  ``init_plans`` are provably uncorrelated and
#: run at most once per statement execution; ``subplans`` may see the outer
#: row and run once per evaluation.  Each attached root names the AST it
#: implements in ``info["subquery"]``.
INIT_PLANS = "init_plans"
SUBPLANS = "subplans"
ATTACHED_KEYS = (INIT_PLANS, SUBPLANS)

#: Operator kinds implementing joins.
JOIN_KINDS = frozenset(
    {
        OpKind.NESTED_LOOP_JOIN,
        OpKind.HASH_JOIN,
        OpKind.MERGE_JOIN,
        OpKind.SEMI_JOIN,
        OpKind.ANTI_JOIN,
    }
)


@dataclass
class CostEstimate:
    """Optimizer cost estimate for one plan node."""

    startup: float = 0.0
    total: float = 0.0

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.startup + other.startup, self.total + other.total)


@dataclass
class RuntimeStats:
    """Actual execution statistics for one plan node."""

    actual_rows: int = 0
    actual_time_ms: float = 0.0
    loops: int = 0
    executed: bool = False


@dataclass
class PhysicalNode:
    """One node of a physical query plan."""

    kind: OpKind
    info: Dict[str, Any] = field(default_factory=dict)
    children: List["PhysicalNode"] = field(default_factory=list)
    estimated_rows: float = 1.0
    cost: CostEstimate = field(default_factory=CostEstimate)
    width: int = 4
    runtime: RuntimeStats = field(default_factory=RuntimeStats)

    # -- tree helpers --------------------------------------------------------------

    def walk(self, attached: Sequence[str] = ()) -> Iterator["PhysicalNode"]:
        """Yield this node and its descendants in pre-order.

        *attached* names the ``info`` keys (a subset of :data:`ATTACHED_KEYS`)
        whose subquery plans are walked too, after the node's children —
        attached plans are not children, so the default walk, ``size`` and
        ``depth`` do not see them.
        """
        yield self
        for child in self.children:
            yield from child.walk(attached)
        for key in attached:
            for plan in self.info.get(key, ()):
                yield from plan.walk(attached)

    def attached_plans(self) -> List["PhysicalNode"]:
        """The subquery plans attached to this node: init-plans, then subplans."""
        return [plan for key in ATTACHED_KEYS for plan in self.info.get(key, ())]

    def size(self) -> int:
        """Return the number of nodes in this subtree."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Return the height of this subtree."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find(self, kind: OpKind) -> List["PhysicalNode"]:
        """Return every node of the given kind in this subtree."""
        return [node for node in self.walk() if node.kind is kind]

    # -- description -----------------------------------------------------------------

    def describe(self, indent: int = 0) -> str:
        """Return a readable multi-line description (debugging aid)."""
        pad = "  " * indent
        details = []
        for key in ("table", "alias", "index", "join_type", "strategy"):
            if key in self.info and self.info[key]:
                details.append(f"{key}={self.info[key]}")
        detail_text = (" [" + ", ".join(details) + "]") if details else ""
        lines = [
            f"{pad}{self.kind.value}{detail_text} "
            f"(rows={self.estimated_rows:.0f} cost={self.cost.startup:.2f}..{self.cost.total:.2f})"
        ]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalNode({self.kind.value}, children={len(self.children)})"


def make_node(
    kind: OpKind,
    children: Optional[List[PhysicalNode]] = None,
    estimated_rows: float = 1.0,
    startup_cost: float = 0.0,
    total_cost: float = 0.0,
    width: int = 4,
    **info: Any,
) -> PhysicalNode:
    """Convenience constructor used throughout the planner."""
    return PhysicalNode(
        kind=kind,
        info=dict(info),
        children=list(children or []),
        estimated_rows=max(estimated_rows, 0.0),
        cost=CostEstimate(startup=startup_cost, total=total_cost),
        width=width,
    )
