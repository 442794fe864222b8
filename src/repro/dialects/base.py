"""Base classes for the simulated DBMSs.

Each simulated DBMS (a *dialect*) owns its own database instance, planner and
executor, and exposes the two entry points the paper's applications need:

``execute(statement)``
    Run a statement and return its result rows.

``explain(statement, format=..., analyze=...)``
    Return a *serialized query plan* in one of the DBMS's native formats
    (Table III of the paper lists which formats each DBMS officially offers).

Internally, relational dialects plan queries with the shared optimizer and
then *shape* the dialect-neutral physical plan into a :class:`RawPlanNode`
tree carrying DBMS-specific operator names and properties, which is finally
serialized into the requested native format.  The UPlan converters
(:mod:`repro.converters`) parse those native strings back — they never see the
physical plan, exactly as a converter for a real DBMS only sees ``EXPLAIN``
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.catalog.database import Database
from repro.core.model import walk_tree
from repro.dialects.prepared import PreparedQueryCache, reset_runtime
from repro.engine import create_executor, executor_class
from repro.engine.executor import Executor, Row
from repro.errors import DialectError, ParseError, UnsupportedFormatError
from repro.optimizer.bounds import bound_violations
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import PhysicalNode
from repro.optimizer.planner import Planner, PlannerOptions
from repro.sqlparser import ast_nodes as ast


@dataclass
class RawPlanNode:
    """One node of a DBMS-native plan tree (before serialization)."""

    name: str
    properties: Dict[str, Any] = field(default_factory=dict)
    children: List["RawPlanNode"] = field(default_factory=list)


@dataclass
class RawPlan:
    """A DBMS-native plan: a tree plus plan-level properties."""

    root: Optional[RawPlanNode] = None
    properties: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExplainOutput:
    """The result of an ``explain`` call."""

    dbms: str
    format: str
    text: str
    query: str = ""
    #: ``EXPLAIN ANALYZE`` only: operators whose actual row count exceeded
    #: their proven intermediate-size bound (see :mod:`repro.optimizer.bounds`).
    #: Always empty for a correct engine — any entry is an optimizer or
    #: executor bug, which the campaign's "Bound" oracle reports.
    bound_violations: Sequence[Dict[str, Any]] = ()


class SimulatedDBMS:
    """Common interface of every simulated DBMS."""

    #: Lower-case identifier, e.g. ``"postgresql"``.
    name: str = "abstract"
    #: Version string mirroring Table I of the paper.
    version: str = "0.0"
    #: Data model, one of relational / document / graph / time-series.
    data_model: str = "relational"
    #: Officially supported serialized plan formats (Table III).
    plan_formats: Sequence[str] = ()
    #: The format used when none is requested.
    default_format: str = "text"

    def execute(self, statement: str) -> List[Row]:
        """Execute a statement and return result rows."""
        raise NotImplementedError

    def explain(
        self, statement: str, format: Optional[str] = None, analyze: bool = False
    ) -> ExplainOutput:
        """Return the serialized query plan for *statement*."""
        raise NotImplementedError

    def supported_formats(self) -> List[str]:
        """Return the native serialized plan formats this DBMS offers."""
        return list(self.plan_formats)

    def _check_format(self, format_name: Optional[str]) -> str:
        chosen = (format_name or self.default_format).lower()
        if chosen not in {name.lower() for name in self.plan_formats}:
            raise UnsupportedFormatError(
                self.name,
                f"format {chosen!r} is not supported; available: {sorted(self.plan_formats)}",
            )
        return chosen


@dataclass(frozen=True)
class EngineConfig:
    """The settings of a relational dialect, validated once at construction.

    Every setting is semantically invisible: result rows, oracle verdicts
    and Table V are the same under every combination (so is row order,
    except that ``optimize_joins`` may reorder a query without ORDER BY).
    The executor and the prepared cache do not change plans either; the
    two planner switches do (and so QPG's coverage).  Frozen and picklable, so
    one value travels unchanged from a campaign through its shards, the
    query service and its replica workers, to the dialect and its planner;
    :meth:`RelationalDialect.reconfigure` is the one place a live dialect
    applies a change.
    """

    #: Which executor runs plans: ``"vectorized"`` (the columnar batch
    #: engine), ``"row"`` (the row-at-a-time interpreter, kept as the
    #: correctness oracle) or ``"parallel"`` (morsel-driven) — identical
    #: results, row order and ``EXPLAIN ANALYZE`` row counts
    #: (tests/test_vectorized_equivalence.py).
    executor: str = "vectorized"
    #: Memoise lex→parse→plan results (:class:`PreparedQueryCache`).
    prepared_cache: bool = True
    #: Rewrite uncorrelated ``IN`` / ``EXISTS`` predicates into hash
    #: semi/anti joins, or keep the per-row subquery filter (the oracle).
    decorrelate: bool = True
    #: Push predicates below joins and reorder joins cost-based, or plan
    #: them as written (the oracle).
    optimize_joins: bool = True

    def __post_init__(self) -> None:
        executor_class(self.executor)
        for name in ("prepared_cache", "decorrelate", "optimize_joins"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")


class RelationalDialect(SimulatedDBMS):
    """Base class of the six simulated relational / SQL-speaking DBMSs."""

    #: Counter seed for per-plan operator identifiers (e.g. TiDB's ``_5``).
    identifier_seed: int = 3

    def __init__(self, config: EngineConfig = EngineConfig()) -> None:
        self.database = Database(self.name)
        self.config = config
        self.planner = Planner(
            self.database,
            cost_model=self.cost_model(),
            options=self._planner_options(self.planner_options()),
        )
        self.executor = create_executor(config.executor, self.database, self.planner)
        self._statements_executed = 0
        #: Memoised lex→parse→plan results for the campaign hot path.  A plan
        #: is keyed on the catalog epoch and the planning versions of the
        #: tables its statement names, so DDL and ``analyze_tables``
        #: invalidate everything and DML only the plans that name the written
        #: table, all implicitly; ``prepared_cache=False`` turns it off with
        #: byte-for-byte identical results — see tests/test_prepared_cache.py.
        self.prepared = PreparedQueryCache(enabled=config.prepared_cache)

    # -- per-dialect configuration ------------------------------------------------

    def reconfigure(self, **changes: Any) -> None:
        """Apply new :class:`EngineConfig` settings to this live dialect.

        Safe at any point between statements.  Executors are stateless
        between statements, so a new one only changes *how* the next plan
        is interpreted.  Cached physical plans were produced under the old
        planner switches and no catalog or table version would invalidate
        them, so a change of ``decorrelate`` or ``optimize_joins`` drops the
        prepared-query cache.  Unknown keys and bad values raise before
        anything changes.
        """
        old, new = self.config, replace(self.config, **changes)
        self.config = new
        if new.executor != old.executor:
            self.executor = create_executor(new.executor, self.database, self.planner)
        if (new.decorrelate, new.optimize_joins) != (old.decorrelate, old.optimize_joins):
            self.planner.options = self._planner_options(self.planner.options)
            self.prepared.clear()
        self.prepared.enabled = new.prepared_cache

    def set_executor(self, kind: str) -> None:
        """Switch the executor implementation (``reconfigure(executor=kind)``)."""
        self.reconfigure(executor=kind)

    def _planner_options(self, options: PlannerOptions) -> PlannerOptions:
        """*options* with the planner switches of :attr:`config`."""
        return replace(
            options,
            decorrelate=self.config.decorrelate,
            optimize_joins=self.config.optimize_joins,
        )

    def planner_options(self) -> PlannerOptions:
        """Planner options for this dialect (overridden by subclasses)."""
        return PlannerOptions()

    def cost_model(self) -> CostModel:
        """Cost model for this dialect (overridden by subclasses)."""
        return CostModel()

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        """Translate a physical plan into this DBMS's native plan tree."""
        raise NotImplementedError

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        """Serialize a native plan tree into the requested native format."""
        raise NotImplementedError

    # -- statement execution --------------------------------------------------------

    def execute(self, statement: str) -> List[Row]:
        """Parse, plan, and execute one or more SQL statements.

        Parsing and planning go through :attr:`prepared`: repeated statement
        texts reuse their AST, and their physical plan too as long as the
        catalog and the tables they name are unchanged.  Plans for each
        statement of a multi-statement script are keyed at the freshness
        current when that statement runs, so earlier statements' mutations
        are always seen.
        """
        results: List[Row] = []
        text_key, statements = self.prepared.parse(statement)
        for index, parsed in enumerate(statements):
            if isinstance(parsed, ast.Explain):
                output = self.explain(
                    statement, format=parsed.format, analyze=parsed.analyze
                )
                return [{"QUERY PLAN": output.text}]
            plan = self.prepared.plan(
                text_key,
                index,
                self.prepared.freshness(statements, index, self.database),
                lambda parsed=parsed: self.planner.plan_statement(parsed),
            )
            results = self.executor.execute(plan)
            self._statements_executed += 1
            if isinstance(parsed, (ast.Insert, ast.Delete, ast.Update, ast.CreateIndex)):
                # Keep optimizer statistics reasonably fresh, as autovacuum /
                # auto-analyze would in the real systems.
                self._maybe_analyze(parsed)
        return results

    def _maybe_analyze(self, statement: ast.Statement) -> None:
        table_name = getattr(statement, "table", None)
        if table_name and self.database.has_table(table_name):
            self.database.analyze(table_name)

    def explain(
        self, statement: str, format: Optional[str] = None, analyze: bool = False
    ) -> ExplainOutput:
        """Plan (and optionally execute) a statement, returning its native plan."""
        chosen = self._check_format(format)
        text_key, statements = self.prepared.parse(statement)
        if len(statements) != 1:
            raise ParseError(
                f"expected exactly one statement, found {len(statements)}"
            )
        parsed = statements[0]
        if isinstance(parsed, ast.Explain):
            analyze = analyze or parsed.analyze
            if parsed.format:
                chosen = self._check_format(parsed.format)
            parsed = parsed.statement
        physical = self.prepared.plan(
            text_key,
            0,
            self.prepared.freshness(statements, 0, self.database),
            lambda: self.planner.plan_statement(parsed),
        )
        violations: Sequence[Dict[str, Any]] = ()
        if analyze:
            # The cached tree is shared across executions; report this run's
            # statistics, not an accumulation over every run the tree saw.
            self.executor.execute(reset_runtime(physical), analyze=True)
            # With fresh runtime counters in hand, check every operator's
            # actual row count against its proven intermediate-size bound.
            violations = tuple(bound_violations(physical))
        raw = self.shape_plan(physical, analyze=analyze)
        text = self.serialize_plan(raw, chosen)
        return ExplainOutput(
            dbms=self.name,
            format=chosen,
            text=text,
            query=statement,
            bound_violations=violations,
        )

    def reset(self) -> None:
        """Drop every table, returning the DBMS to a pristine state."""
        for table_name in list(self.database.table_names()):
            self.database.drop_table(table_name)

    def analyze_tables(self) -> None:
        """Refresh optimizer statistics for every table."""
        self.database.analyze()


# ---------------------------------------------------------------------------
# Shared serialization helpers
# ---------------------------------------------------------------------------


def render_dot_plan(
    plan: RawPlan, graph: str, attributes: Sequence[str], upward: bool = False
) -> str:
    """Render a raw plan as the Graphviz digraph *graph*.

    *attributes* are the graph's attribute statements (``node [shape=box]``).
    Nodes are numbered in pre-order; an edge runs from parent to child,
    or from child to parent when *upward* (a data-flow drawing), and is
    written once the child's subtree is.
    """
    lines = [f"digraph {graph} {{"] + [f"  {attribute};" for attribute in attributes]
    for node, _, node_id, parent_id, _, exit in walk_tree(plan.root):
        if not exit:
            label = node.name.replace('"', "'")
            lines.append(f'  n{node_id} [label="{label}"];')
        elif parent_id is not None:
            source, target = (node_id, parent_id) if upward else (parent_id, node_id)
            lines.append(f"  n{source} -> n{target};")
    lines.append("}")
    return "\n".join(lines)


def plan_document(
    root: RawPlanNode, name_key: str, children_key: str, hidden: Sequence[str] = ()
) -> Dict[str, Any]:
    """The JSON document of a raw plan tree.

    Each node becomes a dict: its name under *name_key*, its properties
    except *hidden*, then — when it has children — their dicts under
    *children_key*.
    """
    documents: List[Dict[str, Any]] = []  # by pre-order id - 1
    for node, _, _, parent_id, _, exit in walk_tree(root):
        if exit:
            continue
        data: Dict[str, Any] = {name_key: node.name}
        data.update(node.properties)
        for key in hidden:
            data.pop(key, None)
        if node.children:
            data[children_key] = []
        if parent_id is not None:
            documents[parent_id - 1][children_key].append(data)
        documents.append(data)
    return documents[0]


def format_number(value: float, decimals: int = 2) -> str:
    """Format a cost/row number the way EXPLAIN outputs usually do."""
    return f"{value:.{decimals}f}"
