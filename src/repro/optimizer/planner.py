"""The cost-based query planner.

The planner turns parsed statements into :class:`~repro.optimizer.physical.PhysicalNode`
trees.  Its structure follows the classic pipeline described in Section II of
the paper: queries are parsed into logical steps, converted to physical
operations, and a physical plan is selected using a cost model.

Main features:

* predicate pushdown of single-table conjuncts onto scans, including below
  the preserved side of outer joins (never below the null-extended side),
* access-path selection (sequential scan vs index scan vs index-only scan)
  driven by per-column statistics,
* join ordering via dynamic programming over the join graph (greedy fallback
  above a size threshold), with hash / merge / nested-loop algorithm choice,
* proven intermediate-size bounds (:mod:`repro.optimizer.bounds`) threaded
  through every node's ``info["size_bound"]``: cardinality estimates are
  capped at the bound, the DP memo prunes branches whose children already
  cost more than the best complete plan, and EXPLAIN ANALYZE checks actual
  row counts against the bounds (the campaign's "Bound" oracle),
* an ``optimize_joins=False`` as-written mode (a :class:`PlannerOptions`
  field) — joins planned exactly in the written FROM order with every WHERE
  conjunct evaluated above them — kept as the oracle the optimizing planner
  is fuzzed against: flipping it changes plans and coverage, never results
  or Table V,
* hash or sorted aggregation, DISTINCT, set operations, ORDER BY / LIMIT,
* subqueries in FROM (planned recursively) and subqueries in WHERE
  residuals, HAVING and select lists, each planned exactly once — here,
  never at execution time — and attached to the node that evaluates it:
  as an ``init_plans`` entry when provably uncorrelated (the executor runs
  it at most once per statement; PostgreSQL's ``InitPlan``), as a
  ``subplans`` entry otherwise (once per evaluation; ``SubPlan``),
* DML and DDL plans for the Consumer-category operations.

Planner behaviour is configurable through :class:`PlannerOptions`; the
simulated dialects use different option sets, which yields the structurally
different — yet conceptually equivalent — plans the case study observed.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.database import Database
from repro.catalog.statistics import ColumnStatistics
from repro.errors import PlanningError
from repro.optimizer import bounds
from repro.optimizer.cardinality import (
    estimate_distinct_groups,
    estimate_join_selectivity,
    estimate_quantified_selectivity,
    estimate_selectivity,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import (
    INIT_PLANS,
    SUBPLANS,
    CostEstimate,
    OpKind,
    PhysicalNode,
    make_node,
)
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.printer import print_expression


@dataclass(frozen=True)
class PlannerOptions:
    """Tunable planner behaviour (per simulated DBMS).

    Frozen: a planner's behaviour changes only by swapping in a whole new
    value (``dataclasses.replace``), which is how a dialect applies its
    :class:`~repro.dialects.base.EngineConfig`.
    """

    enable_hash_join: bool = True
    enable_merge_join: bool = True
    enable_nested_loop_join: bool = True
    enable_index_scan: bool = True
    enable_index_only_scan: bool = True
    #: Predicate selectivity below which an index scan is preferred.
    index_selectivity_threshold: float = 0.25
    #: Maximum number of relations planned with exhaustive dynamic programming.
    dp_threshold: int = 8
    #: Prefer hashed aggregation over sorted aggregation.
    prefer_hash_aggregate: bool = True
    #: Emit a TopN node when ORDER BY and LIMIT are both present.
    enable_top_n: bool = True
    #: Run the optimization phase — predicate pushdown and cost-based join
    #: reordering.  ``False`` plans joins exactly in the written FROM order
    #: and keeps every WHERE conjunct in a filter above them: the as-written
    #: oracle the optimizing planner is checked against
    #: (tests/test_optimizer.py fuzzes the equivalence).  Like
    #: ``decorrelate``, flipping it changes plans and coverage but never
    #: result rows (up to order for queries without ORDER BY), oracle
    #: verdicts, or Table V.
    optimize_joins: bool = True
    #: Rewrite uncorrelated ``IN`` / ``EXISTS`` WHERE conjuncts into hash
    #: semi/anti joins (O(outer + inner)) instead of evaluating the subquery
    #: once per outer row inside a filter predicate (O(outer × inner)).
    #: Semantically invisible: ``False`` keeps the per-row path as the
    #: correctness oracle (tests/test_decorrelate.py fuzzes the equivalence).
    decorrelate: bool = True


@dataclass
class _Relation:
    """One base relation (or derived table) participating in a SELECT core."""

    alias: str
    table_name: Optional[str] = None
    subquery: Optional[ast.SelectStatement] = None
    predicates: List[ast.Expression] = field(default_factory=list)


@dataclass
class _JoinEdge:
    """A join predicate connecting two relations."""

    left_alias: str
    right_alias: str
    condition: ast.Expression
    join_type: str = "INNER"


@dataclass
class _SemiJoinTarget:
    """A WHERE conjunct the decorrelation rewrite turns into a semi/anti join."""

    #: ``"in"`` (probe a key set) or ``"exists"`` (an emptiness test).
    quantifier: str
    #: True for ``NOT IN`` / ``NOT EXISTS`` (a null-aware anti join).
    negated: bool
    subquery: ast.SelectStatement
    #: The outer-side probe expression (``None`` for EXISTS).
    probe: Optional[ast.Expression] = None


def _subquery_of(expression: ast.Expression) -> Optional[ast.SelectStatement]:
    """The query a scalar / ``IN`` / ``EXISTS`` subquery expression runs."""
    if isinstance(expression, (ast.ScalarSubquery, ast.Exists)):
        return expression.query
    if isinstance(expression, ast.InSubquery):
        return expression.subquery
    return None


def _aliases_in(table_expression: ast.TableExpression) -> Set[str]:
    """The aliases a FROM item brings into scope."""
    return {
        item.effective_name
        for item in ast.join_items(table_expression)
        if isinstance(item, (ast.TableRef, ast.SubqueryRef))
    }


class Planner:
    """Plans statements for one :class:`~repro.catalog.database.Database`."""

    def __init__(
        self,
        database: Database,
        cost_model: Optional[CostModel] = None,
        options: Optional[PlannerOptions] = None,
    ) -> None:
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.options = options or PlannerOptions()
        #: Nesting depth of predicate-subquery planning.  Inside a subquery
        #: the executor merges the outer row into every evaluation context,
        #: so a column the subquery's own scope cannot resolve may still be
        #: legal (correlation); plan-time unknown-column validation is
        #: therefore restricted to depth 0.
        self._subquery_depth = 0
        #: ``.names``: lower-cased *bare* row keys the enclosing evaluation
        #: contexts expose to the subquery being planned (aggregate output
        #: names, one set per enclosing HAVING / select-list level).  The
        #: engine resolves an unqualified reference by exact bare key before
        #: it tries qualified scan columns, so such a name reads the outer
        #: row even when the subquery's own scope has the column: it is
        #: never provably own-scope (:meth:`_reference_in_scope`).  Per
        #: thread, because the service's readers plan on one planner.
        self._exposed = threading.local()

    # ------------------------------------------------------------------ entry points

    def plan_statement(self, statement: ast.Statement) -> PhysicalNode:
        """Plan any supported statement."""
        if isinstance(statement, ast.Explain):
            return self.plan_statement(statement.statement)
        if isinstance(statement, ast.SelectStatement):
            return self.plan_select(statement)
        if isinstance(statement, ast.Insert):
            return self._plan_insert(statement)
        if isinstance(statement, ast.Update):
            return self._plan_update(statement)
        if isinstance(statement, ast.Delete):
            return self._plan_delete(statement)
        if isinstance(statement, ast.CreateTable):
            return make_node(OpKind.CREATE_TABLE, table=statement.name, statement=statement)
        if isinstance(statement, ast.CreateIndex):
            return make_node(
                OpKind.CREATE_INDEX,
                table=statement.table,
                index=statement.name,
                statement=statement,
            )
        if isinstance(statement, ast.DropTable):
            return make_node(OpKind.DROP_TABLE, table=statement.name, statement=statement)
        raise PlanningError(f"cannot plan statement of type {type(statement).__name__}")

    def plan_subquery(self, statement: ast.SelectStatement) -> PhysicalNode:
        """Plan a predicate subquery (one that may see an outer row).

        Identical to :meth:`plan_select` except that validations requiring
        the statement to be self-contained — unknown grouping columns — are
        suspended: a reference the subquery's own scope cannot resolve may
        legally correlate to the enclosing query at execution time.
        """
        self._subquery_depth += 1
        try:
            return self.plan_select(statement)
        finally:
            self._subquery_depth -= 1

    def plan_select(self, statement: ast.SelectStatement) -> PhysicalNode:
        """Plan a SELECT statement including set operations and ORDER/LIMIT."""
        body = statement.body
        if isinstance(body, ast.SetOperation):
            plan = self._plan_set_operation(body)
        else:
            plan = self._plan_core(body)

        if statement.order_by:
            if statement.limit is not None and self.options.enable_top_n:
                plan = self._add_sort(
                    plan, statement.order_by, top_n=True, limit=statement.limit, body=body
                )
            else:
                plan = self._add_sort(
                    plan, statement.order_by, top_n=False, limit=None, body=body
                )
        if statement.limit is not None and not (
            statement.order_by and self.options.enable_top_n
        ):
            plan = self._add_limit(plan, statement.limit, statement.offset)
        elif statement.offset is not None and statement.limit is None:
            plan = self._add_limit(plan, None, statement.offset)
        return plan

    # ------------------------------------------------------------------ set operations

    def _plan_set_operation(self, operation: ast.SetOperation) -> PhysicalNode:
        left = (
            self._plan_set_operation(operation.left)
            if isinstance(operation.left, ast.SetOperation)
            else self._plan_core(operation.left)
        )
        right = (
            self._plan_set_operation(operation.right)
            if isinstance(operation.right, ast.SetOperation)
            else self._plan_core(operation.right)
        )
        total_rows = left.estimated_rows + right.estimated_rows
        cost = CostEstimate(
            startup=left.cost.startup + right.cost.startup,
            total=left.cost.total + right.cost.total,
        )
        operator = operation.operator.upper()
        if operator == "UNION ALL":
            node = make_node(
                OpKind.APPEND,
                children=[left, right],
                estimated_rows=total_rows,
                startup_cost=cost.startup,
                total_cost=cost.total,
                set_operator="UNION ALL",
            )
            return self._propagate_bound(node)
        append = self._propagate_bound(
            make_node(
                OpKind.APPEND,
                children=[left, right],
                estimated_rows=total_rows,
                startup_cost=cost.startup,
                total_cost=cost.total,
                set_operator=operator,
            )
        )
        if operator == "UNION":
            groups = max(total_rows * 0.9, 1.0)
            aggregate_cost = self.cost_model.aggregate(total_rows, groups, hashed=True)
            return self._propagate_bound(
                make_node(
                    OpKind.HASH_AGGREGATE,
                    children=[append],
                    estimated_rows=groups,
                    startup_cost=cost.total + aggregate_cost.startup,
                    total_cost=cost.total + aggregate_cost.total,
                    group_keys=[],
                    aggregates=[],
                    strategy="hash",
                    deduplicate=True,
                    set_operator="UNION",
                )
            )
        kind = OpKind.INTERSECT if operator == "INTERSECT" else OpKind.EXCEPT
        result_rows = (
            min(left.estimated_rows, right.estimated_rows)
            if kind is OpKind.INTERSECT
            else max(left.estimated_rows - right.estimated_rows, 1.0)
        )
        return self._propagate_bound(
            make_node(
                kind,
                children=[left, right],
                estimated_rows=result_rows,
                startup_cost=cost.startup,
                total_cost=cost.total + total_rows * self.cost_model.cpu_operator_cost,
                set_operator=operator,
            )
        )

    # ------------------------------------------------------------------ SELECT core

    def _plan_core(self, core: ast.SelectCore) -> PhysicalNode:
        if core.from_clause is None:
            return self._plan_constant_select(core)

        relations, edges, outer_joins, residual, nullable = self._collect_relations(core)
        group_by = self._resolve_group_by(core, relations)
        resolver = self._statistics_resolver(relations)

        # Classify WHERE conjuncts.
        use_syntactic = outer_joins or not self.options.optimize_joins
        where_conjuncts = ast.split_conjuncts(core.where)
        # Join conditions that are not two-relation edges (a single-table or
        # three-way ON condition).  The syntactic join path applies them at
        # their own join node, so re-applying them above would wrongly drop
        # null-padded outer-join rows; the reordering path consults only the
        # edge list, so they must survive as a residual filter (sound there —
        # outer joins always take the syntactic path).
        complex_conjuncts: List[ast.Expression] = (
            [] if use_syntactic else list(residual)
        )
        semi_targets: List[_SemiJoinTarget] = []
        alias_names = {relation.alias for relation in relations}
        for conjunct in where_conjuncts:
            aliases = self._referenced_aliases(conjunct, alias_names)
            if self._contains_subquery(conjunct):
                target = (
                    self._decorrelation_target(conjunct) if self.options.decorrelate else None
                )
                if target is not None:
                    semi_targets.append(target)
                else:
                    complex_conjuncts.append(conjunct)
            elif not self.options.optimize_joins:
                # As-written mode: no pushdown — every plain conjunct is
                # evaluated in one filter above the syntactic join tree.
                complex_conjuncts.append(conjunct)
            elif len(aliases) == 1 and next(iter(aliases)) not in nullable:
                # Pushing below a join is safe for a single-relation conjunct
                # as long as the relation is never null-extended: filtering a
                # preserved-side row before the join removes exactly the
                # output rows the same filter would remove above it.  A
                # conjunct on a nullable (outer-join inner) side must stay
                # above, where it sees the padded NULLs.
                alias = next(iter(aliases))
                self._relation_by_alias(relations, alias).predicates.append(conjunct)
            elif (
                len(aliases) == 2
                and isinstance(conjunct, ast.BinaryOp)
                and not outer_joins
            ):
                # A two-relation WHERE conjunct is an extra (inner) join
                # edge.  With outer joins in the FROM tree the edge list is
                # not consulted — the conjunct must survive as a filter.
                left_alias, right_alias = sorted(aliases)
                edges.append(_JoinEdge(left_alias, right_alias, conjunct))
            else:
                complex_conjuncts.append(conjunct)

        # Plan access paths and join order.
        needed_columns = self._compute_needed_columns(core, relations, edges, group_by)
        if use_syntactic:
            plan = self._plan_syntactic_joins(
                core.from_clause, relations, alias_names, needed_columns
            )
        else:
            plan = self._plan_join_order(relations, edges, needed_columns)

        # Decorrelated IN / EXISTS conjuncts become hash semi/anti joins.
        for target in semi_targets:
            plan = self._add_semi_join(plan, target)

        # Residual predicates that could not be pushed down.  Selectivity is
        # estimated with the same per-conjunct statistics the pushdown path
        # uses, so the as-written filter and the pushed-down scans agree on
        # the root estimate — CERT verdicts are toggle-independent.
        if complex_conjuncts:
            plan = self._add_filter(
                plan, ast.conjoin(complex_conjuncts), resolver=resolver
            )

        # Aggregation.
        aggregates = self._collect_aggregates(core)
        aggregate: Optional[PhysicalNode] = None
        if group_by or aggregates:
            plan = aggregate = self._add_aggregate(
                plan, core, aggregates, group_by, resolver
            )
            if core.having is not None:
                plan = self._add_filter(
                    plan, core.having, is_having=True, aggregate=aggregate
                )
        elif core.having is not None:
            plan = self._add_filter(plan, core.having, is_having=True)

        # Projection.
        plan = self._add_projection(plan, core, aggregate)

        if core.distinct:
            plan = self._add_distinct(plan)
        return plan

    def _plan_constant_select(self, core: ast.SelectCore) -> PhysicalNode:
        items = [
            (item.expression, item.alias or print_expression(item.expression))
            for item in core.items
        ]
        node = make_node(
            OpKind.RESULT,
            estimated_rows=1.0,
            total_cost=self.cost_model.cpu_tuple_cost,
            items=items,
            where=core.where,
            size_bound=1.0,
        )
        return node

    # ------------------------------------------------------------------ FROM analysis

    def _collect_relations(
        self, core: ast.SelectCore
    ) -> Tuple[
        List[_Relation], List[_JoinEdge], bool, List[ast.Expression], Set[str]
    ]:
        relations: List[_Relation] = []
        edges: List[_JoinEdge] = []
        residual: List[ast.Expression] = []
        #: Aliases on the null-extended side of some outer join: the right
        #: subtree of a LEFT join, the left of a RIGHT join, both of a FULL
        #: join.  WHERE conjuncts on these may not be pushed below the join.
        nullable: Set[str] = set()
        has_outer = False
        for table_expression in ast.join_items(core.from_clause):
            if isinstance(table_expression, ast.TableRef):
                relations.append(
                    _Relation(alias=table_expression.effective_name, table_name=table_expression.name)
                )
            elif isinstance(table_expression, ast.SubqueryRef):
                relations.append(
                    _Relation(alias=table_expression.alias, subquery=table_expression.query)
                )
            elif isinstance(table_expression, ast.Join):
                if table_expression.join_type in {"LEFT", "RIGHT", "FULL"}:
                    has_outer = True
                    if table_expression.join_type in {"LEFT", "FULL"}:
                        nullable.update(_aliases_in(table_expression.right))
                    if table_expression.join_type in {"RIGHT", "FULL"}:
                        nullable.update(_aliases_in(table_expression.left))
                condition = table_expression.condition
                if condition is None and table_expression.using_columns:
                    condition = self._using_to_condition(table_expression)
                if condition is not None:
                    aliases = self._referenced_aliases(
                        condition, {relation.alias for relation in relations}
                    )
                    if len(aliases) == 2:
                        left_alias, right_alias = sorted(aliases)
                        edges.append(
                            _JoinEdge(left_alias, right_alias, condition, table_expression.join_type)
                        )
                    else:
                        residual.append(condition)
            else:
                raise PlanningError(
                    f"unsupported FROM item {type(table_expression).__name__}"
                )
        return relations, edges, has_outer, residual, nullable

    def _using_to_condition(self, join: ast.Join) -> Optional[ast.Expression]:
        left_tables = ast.base_tables(join.left)
        right_tables = ast.base_tables(join.right)
        if not left_tables or not right_tables:
            return None
        conditions: List[ast.Expression] = []
        for column in join.using_columns:
            conditions.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(column=column, table=left_tables[-1].effective_name),
                    ast.ColumnRef(column=column, table=right_tables[0].effective_name),
                )
            )
        return ast.conjoin(conditions)

    def _relation_by_alias(self, relations: Sequence[_Relation], alias: str) -> _Relation:
        for relation in relations:
            if relation.alias == alias:
                return relation
        raise PlanningError(f"unknown relation alias {alias!r}")

    def _referenced_aliases(
        self, expression: ast.Expression, alias_names: Set[str]
    ) -> Set[str]:
        aliases: Set[str] = set()
        for reference in ast.referenced_columns(expression):
            if reference.table and reference.table in alias_names:
                aliases.add(reference.table)
            elif reference.table is None:
                owner = self._owning_alias(reference.column, alias_names)
                if owner is not None:
                    aliases.add(owner)
        return aliases

    def _owning_alias(self, column: str, alias_names: Set[str]) -> Optional[str]:
        owners = []
        for alias in alias_names:
            table_name = alias
            if self.database.has_table(table_name) and self.database.schema(table_name).has_column(column):
                owners.append(alias)
        if len(owners) == 1:
            return owners[0]
        return None

    def _contains_subquery(self, expression: ast.Expression) -> bool:
        return any(
            isinstance(e, (ast.ScalarSubquery, ast.InSubquery, ast.Exists))
            for e in ast.iter_expressions(expression)
        )

    # ------------------------------------------------------------------ decorrelation

    def _decorrelation_target(
        self, conjunct: ast.Expression
    ) -> Optional[_SemiJoinTarget]:
        """The semi/anti-join rewrite of *conjunct*, or ``None``.

        A conjunct qualifies when it is an ``IN (SELECT …)`` / ``EXISTS``
        predicate (possibly under ``NOT``) whose subquery is *uncorrelated* —
        every column it references resolves within its own scope.  ``NOT`` is
        sound to fold into the anti flag because under three-valued logic it
        maps ``TRUE ↔ FALSE`` and preserves ``NULL``, and a filter keeps only
        ``TRUE`` rows either way.
        """
        negated = False
        expression = conjunct
        while (
            isinstance(expression, ast.UnaryOp)
            and expression.operator.upper() == "NOT"
        ):
            negated = not negated
            expression = expression.operand
        if isinstance(expression, ast.InSubquery) and expression.subquery is not None:
            if self._contains_subquery(expression.expression):
                return None
            if not self._subquery_is_uncorrelated(expression.subquery):
                return None
            return _SemiJoinTarget(
                quantifier="in",
                negated=negated != expression.negated,
                subquery=expression.subquery,
                probe=expression.expression,
            )
        if isinstance(expression, ast.Exists) and expression.query is not None:
            if not self._subquery_is_uncorrelated(expression.query):
                return None
            return _SemiJoinTarget(
                quantifier="exists",
                negated=negated != expression.negated,
                subquery=expression.query,
            )
        return None

    def _subquery_is_uncorrelated(self, query: ast.SelectStatement) -> bool:
        """Whether every column *query* references resolves in its own scope.

        Scoping is checked **per SELECT core**: a reference is resolvable
        only against the relations of the core it appears in — exactly the
        rows the per-row path would see first — never against relations of
        sibling cores or of derived tables' *internals* (a column visible
        only inside a nested derived table is out of scope at the level
        above, so such a reference correlates outward).  Conservative by
        design: a qualified reference must name an own-scope alias whose
        column list is provable (base-table schema, or a derived table's
        enumerable select list) and contain the column; an unqualified
        reference must be provably a column of an own-scope relation.
        Anything unprovable keeps the per-row correlated path, which is
        always correct.  Nested subqueries are checked against their own
        scope the same way (so a subquery correlated to a *mid* level also
        falls back — stricter than necessary, never wrong).
        """
        pending = [query]
        while pending:
            statement = pending.pop()
            statement_scope: Dict[str, Optional[List[str]]] = {}
            for core in statement.cores():
                scope, join_conditions = self._core_scope(core, pending)
                sources: List[Optional[ast.Expression]] = [
                    item.expression for item in core.items
                ]
                sources.append(core.where)
                sources.extend(core.group_by)
                sources.append(core.having)
                sources.extend(join_conditions)
                for source in sources:
                    if not self._expressions_resolve(source, scope, pending):
                        return False
                for alias, columns in scope.items():
                    statement_scope.setdefault(alias, columns)
            # Statement-level ORDER BY / LIMIT / OFFSET see the union of the
            # statement's core scopes (output-name references fall back).
            tail: List[Optional[ast.Expression]] = [
                item.expression for item in statement.order_by
            ]
            tail.append(statement.limit)
            tail.append(statement.offset)
            for source in tail:
                if not self._expressions_resolve(source, statement_scope, pending):
                    return False
        return True

    def _core_scope(
        self, core: ast.SelectCore, pending: List[ast.SelectStatement]
    ) -> Tuple[Dict[str, Optional[List[str]]], List[ast.Expression]]:
        """``alias → provable column names (or None)`` for one core's FROM,
        plus its join conditions; derived-table queries are queued onto
        *pending* for their own scope check."""
        scope: Dict[str, Optional[List[str]]] = {}
        conditions: List[ast.Expression] = []
        stack: List[Optional[ast.TableExpression]] = [core.from_clause]
        while stack:
            table_expression = stack.pop()
            if table_expression is None:
                continue
            if isinstance(table_expression, ast.TableRef):
                columns: Optional[List[str]] = None
                if self.database.has_table(table_expression.name):
                    columns = list(
                        self.database.schema(table_expression.name).column_names()
                    )
                scope[table_expression.effective_name] = columns
            elif isinstance(table_expression, ast.SubqueryRef):
                scope[table_expression.alias] = self._derived_columns(
                    table_expression.query
                )
                pending.append(table_expression.query)
            elif isinstance(table_expression, ast.Join):
                if table_expression.condition is not None:
                    conditions.append(table_expression.condition)
                stack.append(table_expression.left)
                stack.append(table_expression.right)
        return scope, conditions

    def _derived_columns(self, query: ast.SelectStatement) -> Optional[List[str]]:
        """The enumerable output column names of a derived table, or ``None``
        when they cannot be proven (a star, or an empty body)."""
        cores = query.cores()
        if not cores:
            return None
        names: List[str] = []
        for item in cores[0].items:
            if isinstance(item.expression, ast.Star):
                return None
            name = item.alias or print_expression(item.expression)
            names.append(name.split(".", 1)[1] if "." in name else name)
        return names

    def _expressions_resolve(
        self,
        source: Optional[ast.Expression],
        scope: Dict[str, Optional[List[str]]],
        pending: List[ast.SelectStatement],
    ) -> bool:
        """Whether every column reference in *source* provably resolves in
        *scope*; nested subqueries are queued for their own check."""
        if source is None:
            return True
        for expression in ast.iter_expressions(source):
            query = _subquery_of(expression)
            if query is not None:
                pending.append(query)
            elif isinstance(expression, ast.ColumnRef):
                if not self._reference_in_scope(expression, scope):
                    return False
        return True

    def _reference_in_scope(
        self, reference: ast.ColumnRef, scope: Dict[str, Optional[List[str]]]
    ) -> bool:
        lowered = reference.column.lower()
        if reference.table is not None:
            if reference.table not in scope:
                return False
            columns = scope[reference.table]
            # An unprovable column list (unknown table, starred derived
            # table) cannot prove the reference resolves here — and the
            # outer query may own an identically-named alias.
            return columns is not None and any(
                name.lower() == lowered for name in columns
            )
        if any(lowered in names for names in getattr(self._exposed, "names", ())):
            return False
        return any(
            columns is not None
            and any(name.lower() == lowered for name in columns)
            for columns in scope.values()
        )

    def _add_semi_join(
        self, child: PhysicalNode, target: _SemiJoinTarget
    ) -> PhysicalNode:
        inner = self.plan_subquery(target.subquery)
        kind = OpKind.ANTI_JOIN if target.negated else OpKind.SEMI_JOIN
        selectivity = estimate_quantified_selectivity(
            target.quantifier, target.negated
        )
        output_rows = max(child.estimated_rows * selectivity, 1.0)
        cost = self.cost_model.semi_join(
            child.cost, inner.cost, child.estimated_rows, inner.estimated_rows
        )
        info: Dict[str, object] = {
            "quantifier": target.quantifier,
            "join_type": "Anti" if target.negated else "Semi",
        }
        if target.probe is not None:
            info["probe"] = target.probe
            info["inner_column"] = self._subquery_output_name(target.subquery)
        return self._propagate_bound(
            make_node(
                kind,
                children=[child, inner],
                estimated_rows=output_rows,
                startup_cost=cost.startup,
                total_cost=cost.total,
                width=child.width,
                **info,
            )
        )

    def _subquery_output_name(self, query: ast.SelectStatement) -> str:
        """A display name for the subquery's first output column."""
        cores = query.cores()
        if not cores or not cores[0].items:
            return "column1"
        item = cores[0].items[0]
        if isinstance(item.expression, ast.Star):
            return "*"
        return item.alias or print_expression(item.expression)

    # ------------------------------------------------------------------ ordinals

    def _ordinal(self, expression: ast.Expression) -> Optional[int]:
        """The 1-based output-column ordinal *expression* denotes, if any.

        Per SQL, a bare positive integer literal in ORDER BY / GROUP BY is a
        positional reference to the select list, not a constant.
        """
        if (
            isinstance(expression, ast.Literal)
            and isinstance(expression.value, int)
            and not isinstance(expression.value, bool)
            and expression.value >= 1
        ):
            return expression.value
        return None

    def _resolve_group_by(
        self, core: ast.SelectCore, relations: Sequence[_Relation]
    ) -> List[ast.Expression]:
        """GROUP BY keys with ordinals resolved to select-list expressions.

        Also validates plain column references against the schema-known
        relations so a genuinely unknown grouping column fails at plan time
        naming *that* column (instead of a later, misleading execution error
        about whatever the select list happens to project).
        """
        if not core.group_by:
            return []
        resolved: List[ast.Expression] = []
        for expression in core.group_by:
            ordinal = self._ordinal(expression)
            if ordinal is not None:
                if ordinal > len(core.items):
                    raise PlanningError(
                        f"GROUP BY position {ordinal} is not in the select list"
                    )
                item = core.items[ordinal - 1]
                if isinstance(item.expression, ast.Star):
                    raise PlanningError(
                        f"GROUP BY position {ordinal} refers to '*'"
                    )
                resolved.append(item.expression)
            else:
                resolved.append(expression)
        if self._subquery_depth == 0:
            # Only a self-contained statement can be validated: inside a
            # predicate subquery an unresolvable column may legally
            # correlate to the enclosing query's row at execution time.
            for expression in resolved:
                for reference in ast.referenced_columns(expression):
                    self._check_known_column(reference, relations)
        return resolved

    def _check_known_column(
        self, reference: ast.ColumnRef, relations: Sequence[_Relation]
    ) -> None:
        """Raise :class:`PlanningError` naming *reference* when it provably
        does not exist; references we cannot prove (derived tables) pass."""
        lowered = reference.column.lower()
        if reference.table is not None:
            for relation in relations:
                if relation.alias != reference.table:
                    continue
                if relation.table_name is None or not self.database.has_table(
                    relation.table_name
                ):
                    return
                schema = self.database.schema(relation.table_name)
                if any(name.lower() == lowered for name in schema.column_names()):
                    return
                raise PlanningError(
                    f"unknown column {reference.table}.{reference.column!s}"
                )
            raise PlanningError(f"unknown relation alias {reference.table!r}")
        provable = True
        for relation in relations:
            if relation.table_name is None or not self.database.has_table(
                relation.table_name
            ):
                provable = False
                continue
            schema = self.database.schema(relation.table_name)
            if any(name.lower() == lowered for name in schema.column_names()):
                return
        if provable:
            raise PlanningError(f"unknown column {reference.column!r}")

    def _output_sort_expressions(
        self, body: Optional[ast.SelectCore]
    ) -> List[Optional[ast.Expression]]:
        """One sortable expression per output column, in output order.

        Non-star select items contribute a reference to their *output* name
        (alias or printed text) — the name the projection keys the value
        under, so the sort above the projection reads the projected value
        directly.  Stars expand through the FROM clause in syntactic order;
        expansion stops at the first relation whose columns we cannot
        enumerate, making later ordinals an out-of-range error rather than a
        silent misresolution.
        """
        core: object = body
        while isinstance(core, ast.SetOperation):
            core = core.left
        if not isinstance(core, ast.SelectCore):
            return []
        outputs: List[Optional[ast.Expression]] = []
        for item in core.items:
            if isinstance(item.expression, ast.Star):
                expanded, complete = self._expand_star(item.expression, core)
                outputs.extend(expanded)
                if not complete:
                    return outputs
            elif item.alias:
                outputs.append(ast.ColumnRef(column=item.alias))
            else:
                outputs.append(
                    ast.ColumnRef(column=print_expression(item.expression))
                )
        return outputs

    def _expand_star(
        self, star: ast.Star, core: ast.SelectCore
    ) -> Tuple[List[Optional[ast.Expression]], bool]:
        outputs: List[Optional[ast.Expression]] = []
        for table_expression in ast.join_items(core.from_clause):
            if table_expression is None or isinstance(table_expression, ast.Join):
                continue
            if isinstance(table_expression, ast.TableRef):
                alias = table_expression.effective_name
                if star.table and star.table != alias:
                    continue
                if not self.database.has_table(table_expression.name):
                    return outputs, False
                for column in self.database.schema(table_expression.name).column_names():
                    outputs.append(ast.ColumnRef(column=column, table=alias))
            elif isinstance(table_expression, ast.SubqueryRef):
                alias = table_expression.alias
                if star.table and star.table != alias:
                    continue
                cores = table_expression.query.cores()
                if not cores:
                    return outputs, False
                for item in cores[0].items:
                    if isinstance(item.expression, ast.Star):
                        return outputs, False
                    name = item.alias or print_expression(item.expression)
                    bare = name.split(".", 1)[1] if "." in name else name
                    outputs.append(ast.ColumnRef(column=bare, table=alias))
            else:
                return outputs, False
        return outputs, True

    # ------------------------------------------------------------------ statistics

    def _statistics_resolver(self, relations: Sequence[_Relation]):
        alias_to_table = {
            relation.alias: relation.table_name
            for relation in relations
            if relation.table_name is not None
        }

        def resolver(reference: ast.ColumnRef) -> Optional[ColumnStatistics]:
            candidates: List[str] = []
            if reference.table and reference.table in alias_to_table:
                candidates.append(alias_to_table[reference.table])
            elif reference.table is None:
                candidates.extend(alias_to_table.values())
            for table_name in candidates:
                if not self.database.has_table(table_name):
                    continue
                if not self.database.schema(table_name).has_column(reference.column):
                    continue
                statistics = self.database.statistics(table_name)
                column_statistics = statistics.column(reference.column)
                if column_statistics is not None:
                    return column_statistics
            return None

        return resolver

    # ------------------------------------------------------------------ access paths

    def _plan_relation(
        self, relation: _Relation, resolver, needed_columns: Optional[Set[str]] = None
    ) -> PhysicalNode:
        if relation.subquery is not None:
            inner = self.plan_select(relation.subquery)
            node = make_node(
                OpKind.SUBQUERY_SCAN,
                children=[inner],
                estimated_rows=inner.estimated_rows,
                startup_cost=inner.cost.startup,
                total_cost=inner.cost.total + inner.estimated_rows * self.cost_model.cpu_tuple_cost,
                alias=relation.alias,
                filter=ast.conjoin(relation.predicates),
            )
            inner_bound = inner.info.get("size_bound")
            if inner_bound is not None:
                node.info["size_bound"] = inner_bound
            return node

        table_name = relation.table_name
        if table_name is None or not self.database.has_table(table_name):
            raise PlanningError(f"unknown table {table_name!r}")
        table = self.database.table(table_name)
        statistics = self.database.statistics(table_name)
        table_rows = max(float(statistics.row_count), 1.0)
        width = table.schema.row_width()
        predicate = ast.conjoin(relation.predicates)
        selectivity = estimate_selectivity(predicate, resolver)
        output_rows = max(table_rows * selectivity, 1.0) if predicate is not None else table_rows

        best = self._seq_scan_node(relation, table_rows, output_rows, width, predicate)

        if self.options.enable_index_scan:
            index_plan = self._best_index_scan(
                relation, table_rows, width, resolver, needed_columns or set()
            )
            if index_plan is not None and (
                index_plan.cost.total < best.cost.total
                or (
                    predicate is not None
                    and selectivity <= self.options.index_selectivity_threshold
                    and index_plan.info.get("index_condition") is not None
                )
            ):
                best = index_plan
        # The proven output bound of any scan is the table's *actual* row
        # count (filters only shrink it) — deliberately not the possibly
        # stale statistics row count, since the bound must never under-claim.
        best.info["size_bound"] = float(table.row_count)
        return best

    def _seq_scan_node(
        self,
        relation: _Relation,
        table_rows: float,
        output_rows: float,
        width: int,
        predicate: Optional[ast.Expression],
    ) -> PhysicalNode:
        cost = self.cost_model.seq_scan(table_rows, output_rows, width)
        return make_node(
            OpKind.SEQ_SCAN,
            estimated_rows=output_rows,
            startup_cost=cost.startup,
            total_cost=cost.total,
            width=width,
            table=relation.table_name,
            alias=relation.alias,
            filter=predicate,
            table_rows=table_rows,
        )

    def _best_index_scan(
        self,
        relation: _Relation,
        table_rows: float,
        width: int,
        resolver,
        needed_columns: Set[str],
    ) -> Optional[PhysicalNode]:
        table_name = relation.table_name
        best: Optional[PhysicalNode] = None
        for index in self.database.indexes_for(table_name):
            leading = index.definition.leading_column().lower()
            index_conjuncts: List[ast.Expression] = []
            remaining: List[ast.Expression] = []
            for conjunct in relation.predicates:
                if self._predicate_targets_column(conjunct, relation.alias, leading):
                    index_conjuncts.append(conjunct)
                else:
                    remaining.append(conjunct)
            if not index_conjuncts and not self._index_covers_query(
                index.definition.columns, needed_columns
            ):
                continue
            index_condition = ast.conjoin(index_conjuncts)
            index_selectivity = estimate_selectivity(index_condition, resolver)
            matched_rows = max(table_rows * index_selectivity, 1.0)
            remaining_predicate = ast.conjoin(remaining)
            remaining_selectivity = estimate_selectivity(remaining_predicate, resolver)
            output_rows = max(matched_rows * remaining_selectivity, 1.0)
            covering = (
                self.options.enable_index_only_scan
                and self._index_covers_query(index.definition.columns, needed_columns)
            )
            cost = self.cost_model.index_scan(table_rows, matched_rows, width, covering)
            kind = OpKind.INDEX_ONLY_SCAN if covering else OpKind.INDEX_SCAN
            node = make_node(
                kind,
                estimated_rows=output_rows,
                startup_cost=cost.startup,
                total_cost=cost.total,
                width=width,
                table=table_name,
                alias=relation.alias,
                index=index.definition.name,
                index_columns=list(index.definition.columns),
                index_condition=index_condition,
                filter=remaining_predicate,
                table_rows=table_rows,
            )
            if best is None or node.cost.total < best.cost.total:
                best = node
        return best

    def _predicate_targets_column(
        self, predicate: ast.Expression, alias: str, column: str
    ) -> bool:
        references = ast.referenced_columns(predicate)
        if not references:
            return False
        supported = isinstance(predicate, (ast.BinaryOp, ast.Between, ast.InList))
        if not supported:
            return False
        if isinstance(predicate, ast.BinaryOp) and predicate.operator.upper() in {"AND", "OR"}:
            return False
        return all(
            reference.column.lower() == column
            and (reference.table is None or reference.table == alias)
            for reference in references
        )

    def _index_covers_query(
        self, index_columns: Sequence[str], needed_columns: Set[str]
    ) -> bool:
        if not needed_columns:
            return False
        indexed = {column.lower() for column in index_columns}
        return {column.lower() for column in needed_columns}.issubset(indexed)

    # ------------------------------------------------------------------ join ordering

    def _plan_join_order(
        self,
        relations: List[_Relation],
        edges: List[_JoinEdge],
        needed: Optional[Dict[str, Set[str]]] = None,
    ) -> PhysicalNode:
        resolver = self._statistics_resolver(relations)
        if needed is None:
            needed = self._needed_columns_by_alias(relations)
        base_plans: Dict[frozenset, PhysicalNode] = {}
        for relation in relations:
            base_plans[frozenset([relation.alias])] = self._plan_relation(
                relation, resolver, needed.get(relation.alias, set())
            )
        if len(relations) == 1:
            return next(iter(base_plans.values()))

        if len(relations) <= self.options.dp_threshold:
            return self._dynamic_programming_join(relations, edges, base_plans, resolver)
        return self._greedy_join(relations, edges, base_plans, resolver)

    def _needed_columns_by_alias(self, relations: List[_Relation]) -> Dict[str, Set[str]]:
        # Fallback used for DML planning: only the pushed-down predicates are
        # known, so index-only scans are only chosen when an index covers every
        # column the relation's predicates touch.
        needed: Dict[str, Set[str]] = {}
        for relation in relations:
            columns: Set[str] = set()
            for predicate in relation.predicates:
                for reference in ast.referenced_columns(predicate):
                    columns.add(reference.column)
            needed[relation.alias] = columns
        return needed

    def _compute_needed_columns(
        self,
        core: ast.SelectCore,
        relations: List[_Relation],
        edges: List[_JoinEdge],
        group_by: Optional[List[ast.Expression]] = None,
    ) -> Dict[str, Set[str]]:
        """Every column each relation must provide to answer the query.

        Used for index-only-scan selection: an index can only replace the heap
        when it covers every referenced column of the relation.  A ``*`` select
        item marks every column of every relation as needed.
        """
        alias_names = {relation.alias for relation in relations}
        needed: Dict[str, Set[str]] = {relation.alias: set() for relation in relations}

        def mark(expression: Optional[ast.Expression]) -> None:
            for node in ast.iter_expressions(expression):
                if isinstance(node, ast.ColumnRef):
                    if node.table and node.table in alias_names:
                        needed[node.table].add(node.column)
                    elif node.table is None:
                        owner = self._owning_alias(node.column, alias_names)
                        if owner is not None:
                            needed[owner].add(node.column)
                elif isinstance(node, ast.Star):
                    for relation in relations:
                        if relation.table_name and self.database.has_table(relation.table_name):
                            needed[relation.alias].update(
                                self.database.schema(relation.table_name).column_names()
                            )
                        else:
                            needed[relation.alias].add("*")

        for item in core.items:
            if isinstance(item.expression, ast.Star):
                if item.expression.table and item.expression.table in alias_names:
                    aliases = [item.expression.table]
                else:
                    aliases = list(alias_names)
                for alias in aliases:
                    relation = self._relation_by_alias(relations, alias)
                    if relation.table_name and self.database.has_table(relation.table_name):
                        needed[alias].update(
                            self.database.schema(relation.table_name).column_names()
                        )
                    else:
                        needed[alias].add("*")
            else:
                mark(item.expression)
        mark(core.where)
        for expression in group_by if group_by is not None else core.group_by:
            mark(expression)
        mark(core.having)
        for relation in relations:
            for predicate in relation.predicates:
                mark(predicate)
        for edge in edges:
            mark(edge.condition)
        return needed

    def _edges_between(
        self, edges: List[_JoinEdge], left_aliases: frozenset, right_aliases: frozenset
    ) -> List[_JoinEdge]:
        connecting = []
        for edge in edges:
            if (
                edge.left_alias in left_aliases
                and edge.right_alias in right_aliases
            ) or (
                edge.left_alias in right_aliases and edge.right_alias in left_aliases
            ):
                connecting.append(edge)
        return connecting

    def _dynamic_programming_join(
        self,
        relations: List[_Relation],
        edges: List[_JoinEdge],
        base_plans: Dict[frozenset, PhysicalNode],
        resolver,
    ) -> PhysicalNode:
        aliases = [relation.alias for relation in relations]
        best: Dict[frozenset, PhysicalNode] = dict(base_plans)

        for subset_size in range(2, len(aliases) + 1):
            for subset in itertools.combinations(aliases, subset_size):
                subset_key = frozenset(subset)
                best_plan: Optional[PhysicalNode] = None
                for split_size in range(1, subset_size):
                    for left_part in itertools.combinations(subset, split_size):
                        left_key = frozenset(left_part)
                        right_key = subset_key - left_key
                        if left_key not in best or right_key not in best:
                            continue
                        connecting = self._edges_between(edges, left_key, right_key)
                        if not connecting and len(edges) > 0 and subset_size < len(aliases):
                            # Avoid cartesian products until forced to.
                            continue
                        if self._prune_split(best[left_key], best[right_key], best_plan):
                            continue
                        candidate = self._make_join(
                            best[left_key], best[right_key], connecting, resolver
                        )
                        if best_plan is None or candidate.cost.total < best_plan.cost.total:
                            best_plan = candidate
                if best_plan is None:
                    # Fall back to allowing a cartesian product.
                    for split_size in range(1, subset_size):
                        for left_part in itertools.combinations(subset, split_size):
                            left_key = frozenset(left_part)
                            right_key = subset_key - left_key
                            if left_key not in best or right_key not in best:
                                continue
                            if self._prune_split(
                                best[left_key], best[right_key], best_plan
                            ):
                                continue
                            candidate = self._make_join(best[left_key], best[right_key], [], resolver)
                            if best_plan is None or candidate.cost.total < best_plan.cost.total:
                                best_plan = candidate
                if best_plan is not None:
                    best[subset_key] = best_plan

        full_key = frozenset(aliases)
        if full_key not in best:
            raise PlanningError("join ordering failed to produce a complete plan")
        return best[full_key]

    def _prune_split(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        best_plan: Optional[PhysicalNode],
    ) -> bool:
        """Branch-and-bound pruning of one memo split.

        Every join cost formula in :class:`CostModel` includes both
        children's full totals, so a split whose children alone already cost
        at least the best complete plan for the subset cannot win — the join
        on top only adds cost.  Sound (never discards a cheaper plan) and
        deterministic (depends only on memo costs, not enumeration order
        beyond the fixed ``itertools`` order).
        """
        if best_plan is None:
            return False
        return left.cost.total + right.cost.total >= best_plan.cost.total

    def _greedy_join(
        self,
        relations: List[_Relation],
        edges: List[_JoinEdge],
        base_plans: Dict[frozenset, PhysicalNode],
        resolver,
    ) -> PhysicalNode:
        remaining = dict(base_plans)
        while len(remaining) > 1:
            best_pair: Optional[Tuple[frozenset, frozenset]] = None
            best_plan: Optional[PhysicalNode] = None
            best_score: Optional[float] = None
            for left_key, right_key in itertools.combinations(list(remaining), 2):
                connecting = self._edges_between(edges, left_key, right_key)
                candidate = self._make_join(
                    remaining[left_key], remaining[right_key], connecting, resolver
                )
                penalty = 1.0 if connecting else self.cost_model.cartesian_penalty
                score = candidate.cost.total * penalty
                if best_score is None or score < best_score:
                    best_plan = candidate
                    best_pair = (left_key, right_key)
                    best_score = score
            assert best_pair is not None and best_plan is not None
            left_key, right_key = best_pair
            del remaining[left_key]
            del remaining[right_key]
            remaining[left_key | right_key] = best_plan
        return next(iter(remaining.values()))

    #: Comparison operators and their operand-swapped mirrors, used to
    #: re-orient join-edge conditions to the enumeration's chosen child order.
    _MIRRORED_COMPARISONS = {
        "=": "=",
        "<>": "<>",
        "<": ">",
        ">": "<",
        "<=": ">=",
        ">=": "<=",
    }

    def _plan_aliases(self, node: PhysicalNode) -> Set[str]:
        """Every relation alias contributing rows to *node*'s subtree."""
        aliases: Set[str] = set()
        for descendant in node.walk():
            alias = descendant.info.get("alias")
            if alias:
                aliases.add(alias)
        return aliases

    def _oriented_join_condition(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        connecting: List[_JoinEdge],
    ) -> ast.Expression:
        """Conjoin the edge conditions, flipped to the chosen child order.

        The join-order enumeration freely builds (B, A) from an edge written
        ``a.x = b.x``.  Both executors' hash/merge key extraction resolves a
        comparison's left reference against the left child, so a misoriented
        conjunct would read as an unresolvable (hence NULL) key and silently
        match nothing.  A conjunct is flipped only when its sides provably
        live entirely in the opposite subtrees; anything else (unqualified
        references, single-sided conditions) is left as written.
        """
        left_aliases = self._plan_aliases(left)
        right_aliases = self._plan_aliases(right)
        conjuncts: List[ast.Expression] = []
        for edge in connecting:
            for conjunct in ast.split_conjuncts(edge.condition):
                if (
                    isinstance(conjunct, ast.BinaryOp)
                    and conjunct.operator in self._MIRRORED_COMPARISONS
                ):
                    side_aliases = [
                        {
                            reference.table
                            for reference in ast.referenced_columns(expression)
                            if reference.table
                        }
                        for expression in (conjunct.left, conjunct.right)
                    ]
                    if (
                        side_aliases[0]
                        and side_aliases[1]
                        and side_aliases[0] <= right_aliases
                        and side_aliases[1] <= left_aliases
                    ):
                        conjunct = ast.BinaryOp(
                            self._MIRRORED_COMPARISONS[conjunct.operator],
                            conjunct.right,
                            conjunct.left,
                        )
                conjuncts.append(conjunct)
        return ast.conjoin(conjuncts)

    def _make_join(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        connecting: List[_JoinEdge],
        resolver,
        join_type: str = "INNER",
    ) -> PhysicalNode:
        condition = (
            self._oriented_join_condition(left, right, connecting)
            if connecting
            else None
        )
        selectivity = estimate_join_selectivity(condition, resolver)
        output_rows = max(left.estimated_rows * right.estimated_rows * selectivity, 1.0)
        width = left.width + right.width
        equi_join = condition is not None and self._is_equi_join(condition)

        # Proven size bound: the product of the input bounds, reduced when a
        # side's equated join columns cover one of its unique keys, plus
        # null-padding terms for outer joins.  An estimate above the proven
        # maximum is certainly wrong, so cap it at the bound.
        size_bound: Optional[float] = None
        left_bound = left.info.get("size_bound")
        right_bound = right.info.get("size_bound")
        if left_bound is not None and right_bound is not None:
            equated = self._equated_join_columns(condition)
            size_bound = bounds.join_bound(
                left_bound,
                right_bound,
                join_type,
                left_unique=self._scan_unique_on(left, equated),
                right_unique=self._scan_unique_on(right, equated),
            )
            output_rows = max(min(output_rows, size_bound), 1.0)
        extra: Dict[str, object] = (
            {"size_bound": size_bound} if size_bound is not None else {}
        )

        candidates: List[PhysicalNode] = []
        if self.options.enable_hash_join and equi_join:
            cost = self.cost_model.hash_join(
                left.cost, right.cost, left.estimated_rows, right.estimated_rows
            )
            candidates.append(
                make_node(
                    OpKind.HASH_JOIN,
                    children=[left, right],
                    estimated_rows=output_rows,
                    startup_cost=cost.startup,
                    total_cost=cost.total,
                    width=width,
                    condition=condition,
                    join_type=join_type,
                    **extra,
                )
            )
        if self.options.enable_merge_join and equi_join:
            cost = self.cost_model.merge_join(
                left.cost, right.cost, left.estimated_rows, right.estimated_rows
            )
            candidates.append(
                make_node(
                    OpKind.MERGE_JOIN,
                    children=[left, right],
                    estimated_rows=output_rows,
                    startup_cost=cost.startup,
                    total_cost=cost.total,
                    width=width,
                    condition=condition,
                    join_type=join_type,
                    **extra,
                )
            )
        if self.options.enable_nested_loop_join or not candidates:
            cost = self.cost_model.nested_loop_join(
                left.cost, right.cost, left.estimated_rows, right.estimated_rows
            )
            candidates.append(
                make_node(
                    OpKind.NESTED_LOOP_JOIN,
                    children=[left, right],
                    estimated_rows=output_rows,
                    startup_cost=cost.startup,
                    total_cost=cost.total,
                    width=width,
                    condition=condition,
                    join_type=join_type,
                    **extra,
                )
            )
        return min(candidates, key=lambda node: node.cost.total)

    def _is_equi_join(self, condition: ast.Expression) -> bool:
        conjuncts = ast.split_conjuncts(condition)
        return any(
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.operator == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
            for conjunct in conjuncts
        )

    #: Operators whose output is exactly the rows of one base table.
    _SCAN_KINDS = frozenset(
        {OpKind.SEQ_SCAN, OpKind.INDEX_SCAN, OpKind.INDEX_ONLY_SCAN}
    )

    def _equated_join_columns(
        self, condition: Optional[ast.Expression]
    ) -> Dict[str, Set[str]]:
        """``alias → columns`` equated across relations by ``=`` conjuncts.

        Only *qualified* cross-relation ``col = col`` equalities count: an
        unqualified reference cannot prove which relation it constrains, and
        a same-alias or column-constant equality says nothing about how many
        rows of one side each row of the other side can match.
        """
        equated: Dict[str, Set[str]] = {}
        if condition is None:
            return equated
        for conjunct in ast.split_conjuncts(condition):
            if not (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.operator == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                continue
            left, right = conjunct.left, conjunct.right
            if not left.table or not right.table or left.table == right.table:
                continue
            equated.setdefault(left.table, set()).add(left.column.lower())
            equated.setdefault(right.table, set()).add(right.column.lower())
        return equated

    def _scan_unique_on(
        self, node: PhysicalNode, equated: Dict[str, Set[str]]
    ) -> bool:
        """Whether *node* is a base-table scan whose equated join columns
        cover an enforced unique key — so every opposite-side row matches at
        most one of its rows.  Sound only for scans: any deeper subtree may
        duplicate or rename columns on the way up."""
        if node.kind not in self._SCAN_KINDS:
            return False
        alias = node.info.get("alias")
        table_name = node.info.get("table")
        if not alias or not table_name or not self.database.has_table(table_name):
            return False
        columns = equated.get(alias)
        if not columns:
            return False
        for index in self.database.indexes_for(table_name):
            if not index.definition.unique:
                continue
            key = {column.lower() for column in index.definition.columns}
            if key and key.issubset(columns):
                return True
        return False

    def _plan_syntactic_joins(
        self,
        from_clause: ast.TableExpression,
        relations: List[_Relation],
        alias_names: Set[str],
        needed: Optional[Dict[str, Set[str]]] = None,
    ) -> PhysicalNode:
        """Plan joins in the order they are written (used when outer joins exist)."""
        resolver = self._statistics_resolver(relations)
        if needed is None:
            needed = self._needed_columns_by_alias(relations)

        # Post-order: each join pops the plans of its two inputs.
        plans: List[PhysicalNode] = []
        for table_expression in ast.join_items(from_clause):
            if isinstance(table_expression, (ast.TableRef, ast.SubqueryRef)):
                alias = table_expression.effective_name
                relation = self._relation_by_alias(relations, alias)
                plans.append(self._plan_relation(relation, resolver, needed.get(alias, set())))
            elif isinstance(table_expression, ast.Join):
                right = plans.pop()
                left = plans.pop()
                condition = table_expression.condition
                if condition is None and table_expression.using_columns:
                    condition = self._using_to_condition(table_expression)
                edge_list = (
                    [_JoinEdge("", "", condition, table_expression.join_type)]
                    if condition is not None
                    else []
                )
                plans.append(
                    self._make_join(
                        left, right, edge_list, resolver, join_type=table_expression.join_type
                    )
                )
            else:
                raise PlanningError(
                    f"unsupported FROM item {type(table_expression).__name__}"
                )
        return plans[0]

    # ------------------------------------------------------------------ upper operators

    def _propagate_bound(
        self, node: PhysicalNode, limit: Optional[float] = None
    ) -> PhysicalNode:
        """Thread the children's proven size bounds onto *node* and cap its
        row estimate at the bound (an estimate above a proven maximum is
        certainly wrong)."""
        child_bounds = [child.info.get("size_bound") for child in node.children]
        bound = bounds.propagated_bound(node.kind, child_bounds, limit=limit)
        if bound is not None:
            node.info["size_bound"] = bound
            if node.estimated_rows > bound:
                node.estimated_rows = max(bound, 1.0)
        return node

    def _add_filter(
        self,
        child: PhysicalNode,
        predicate: Optional[ast.Expression],
        is_having: bool = False,
        resolver=None,
        aggregate: Optional[PhysicalNode] = None,
    ) -> PhysicalNode:
        if predicate is None:
            return child
        if resolver is not None:
            # WHERE residuals use the same per-conjunct statistics the
            # pushdown path uses, so the as-written single filter and the
            # optimized pushed-down scans agree on the root estimate.
            selectivity = estimate_selectivity(predicate, resolver)
        else:
            # HAVING (and other statistics-less call sites) keep the
            # original flat magic numbers.
            selectivity = 0.5 if self._contains_subquery(predicate) else 0.33
        output_rows = max(child.estimated_rows * selectivity, 1.0)
        return self._propagate_bound(
            make_node(
                OpKind.FILTER,
                children=[child],
                estimated_rows=output_rows,
                startup_cost=child.cost.startup,
                total_cost=child.cost.total
                + child.estimated_rows * self.cost_model.cpu_operator_cost,
                width=child.width,
                predicate=predicate,
                is_having=is_having,
                **self._plan_predicate_subqueries([predicate], aggregate),
            )
        )

    def _plan_predicate_subqueries(
        self,
        expressions: Sequence[ast.Expression],
        aggregate: Optional[PhysicalNode] = None,
    ) -> Dict[str, List[PhysicalNode]]:
        """Plan every subquery *expressions* evaluate, as node ``info``.

        The PR-5 self-containment proof decides how often each one runs: a
        provably uncorrelated subquery yields the same rows for every outer
        row, so it becomes an init-plan; anything else (and everything
        under ``decorrelate=False``, the per-row oracle) stays a subplan.
        Each root records the AST it implements so the executor resolves a
        subquery expression to its plan instead of planning it again.
        *aggregate* is the aggregation whose output rows the expressions
        are evaluated against (HAVING, a grouped select list), if any.
        """
        attached: Dict[str, List[PhysicalNode]] = {INIT_PLANS: [], SUBPLANS: []}
        queries = [
            query
            for source in expressions
            for expression in ast.iter_expressions(source)
            if (query := _subquery_of(expression)) is not None
        ]
        if not queries:
            return attached
        enclosing: List[Set[str]] = getattr(self._exposed, "names", [])
        if aggregate is not None:
            self._exposed.names = enclosing + [self._aggregate_output_names(aggregate)]
        try:
            for query in queries:
                plan = self.plan_subquery(query)
                plan.info["subquery"] = query
                once = self.options.decorrelate and self._subquery_is_uncorrelated(query)
                attached[INIT_PLANS if once else SUBPLANS].append(plan)
        finally:
            self._exposed.names = enclosing
        return attached

    def _aggregate_output_names(self, aggregate: PhysicalNode) -> Set[str]:
        """The lower-cased bare keys of *aggregate*'s output rows: printed
        group keys and aggregates, plus a grouped column's own name."""
        names = {
            print_expression(expression).lower()
            for expression in (
                *aggregate.info["group_keys"],
                *aggregate.info["aggregates"],
            )
        }
        names.update(
            key.column.lower()
            for key in aggregate.info["group_keys"]
            if isinstance(key, ast.ColumnRef)
        )
        return names

    def _collect_aggregates(self, core: ast.SelectCore) -> List[ast.FunctionCall]:
        aggregates: List[ast.FunctionCall] = []
        sources: List[Optional[ast.Expression]] = [item.expression for item in core.items]
        sources.append(core.having)
        for item in getattr(core, "order_hint", []):  # pragma: no cover - reserved
            sources.append(item)
        seen: Set[str] = set()
        for source in sources:
            if source is None:
                continue
            for expression in ast.iter_expressions(source):
                if isinstance(expression, ast.FunctionCall) and expression.name.upper() in {
                    "COUNT",
                    "SUM",
                    "AVG",
                    "MIN",
                    "MAX",
                }:
                    key = print_expression(expression)
                    if key not in seen:
                        seen.add(key)
                        aggregates.append(expression)
        return aggregates

    def _add_aggregate(
        self,
        child: PhysicalNode,
        core: ast.SelectCore,
        aggregates: List[ast.FunctionCall],
        group_by: Optional[List[ast.Expression]] = None,
        resolver=None,
    ) -> PhysicalNode:
        group_keys = list(group_by if group_by is not None else core.group_by)
        groups = estimate_distinct_groups(
            len(group_keys),
            child.estimated_rows,
            resolver_ndv=self._group_key_ndv(group_keys, resolver),
        )
        hashed = self.options.prefer_hash_aggregate and bool(group_keys)
        cost = self.cost_model.aggregate(child.estimated_rows, groups, hashed=hashed)
        kind = OpKind.HASH_AGGREGATE if hashed else OpKind.SORT_AGGREGATE
        if not group_keys:
            kind = OpKind.SORT_AGGREGATE
        return self._propagate_bound(
            make_node(
                kind,
                children=[child],
                estimated_rows=groups,
                startup_cost=child.cost.total + cost.startup,
                total_cost=child.cost.total + cost.total,
                width=child.width,
                group_keys=group_keys,
                aggregates=aggregates,
                strategy="hash" if kind is OpKind.HASH_AGGREGATE else "sorted",
            )
        )

    def _group_key_ndv(self, group_keys, resolver) -> Optional[float]:
        """Product of the grouping columns' NDV statistics, or ``None``.

        Under attribute-value independence the number of groups is at most
        the product of the keys' distinct counts (``estimate_distinct_groups``
        still clamps it to the input row count).  Provable only when *every*
        key is a plain column reference with collected statistics — one
        expression key or missing NDV and the estimator falls back to its
        square-root heuristic.
        """
        if resolver is None or not group_keys:
            return None
        product = 1.0
        for key in group_keys:
            if not isinstance(key, ast.ColumnRef):
                return None
            statistics = resolver(key)
            if statistics is None or statistics.distinct_values <= 0:
                return None
            product *= float(statistics.distinct_values)
        return product

    def _add_projection(
        self,
        child: PhysicalNode,
        core: ast.SelectCore,
        aggregate: Optional[PhysicalNode] = None,
    ) -> PhysicalNode:
        items: List[Tuple[ast.Expression, str]] = []
        for item in core.items:
            name = item.alias or print_expression(item.expression)
            items.append((item.expression, name))
        return self._propagate_bound(
            make_node(
                OpKind.PROJECT,
                children=[child],
                estimated_rows=child.estimated_rows,
                startup_cost=child.cost.startup,
                total_cost=child.cost.total
                + child.estimated_rows * self.cost_model.cpu_tuple_cost,
                width=child.width,
                items=items,
                **self._plan_predicate_subqueries(
                    [expression for expression, _ in items], aggregate
                ),
            )
        )

    def _add_distinct(self, child: PhysicalNode) -> PhysicalNode:
        groups = max(child.estimated_rows * 0.9, 1.0)
        cost = self.cost_model.aggregate(child.estimated_rows, groups, hashed=True)
        return self._propagate_bound(
            make_node(
                OpKind.DISTINCT,
                children=[child],
                estimated_rows=groups,
                startup_cost=child.cost.total + cost.startup,
                total_cost=child.cost.total + cost.total,
                width=child.width,
            )
        )

    def _add_sort(
        self,
        child: PhysicalNode,
        order_by: List[ast.OrderItem],
        top_n: bool,
        limit: Optional[ast.Expression],
        body: Optional[object] = None,
    ) -> PhysicalNode:
        cost = self.cost_model.sort(child.estimated_rows)
        keys: List[Tuple[ast.Expression, bool]] = []
        outputs: Optional[List[Optional[ast.Expression]]] = None
        for item in order_by:
            expression = item.expression
            ordinal = self._ordinal(expression)
            if ordinal is not None:
                # ``ORDER BY 1`` is a positional reference to the select
                # list, not a sort by the constant 1 (which would leave the
                # rows in arrival order).
                if outputs is None:
                    outputs = self._output_sort_expressions(body)
                if ordinal > len(outputs):
                    raise PlanningError(
                        f"ORDER BY position {ordinal} is not in the select list"
                    )
                resolved = outputs[ordinal - 1]
                if resolved is None:
                    raise PlanningError(
                        f"ORDER BY position {ordinal} cannot be resolved "
                        "to an output column"
                    )
                expression = resolved
            keys.append((expression, item.descending))
        if top_n and limit is not None:
            limit_value = self._limit_literal(limit)
            rows = (
                min(float(limit_value), child.estimated_rows)
                if limit_value is not None and limit_value >= 0
                else child.estimated_rows
            )
            return self._propagate_bound(
                make_node(
                    OpKind.TOP_N,
                    children=[child],
                    estimated_rows=max(rows, 1.0),
                    startup_cost=child.cost.total + cost.startup,
                    total_cost=child.cost.total + cost.total,
                    width=child.width,
                    sort_keys=keys,
                    limit=limit,
                ),
                # A negative literal LIMIT means "no limit" (SQLite
                # semantics), so it contributes no bound of its own.
                limit=(
                    limit_value
                    if limit_value is not None and limit_value >= 0
                    else None
                ),
            )
        return self._propagate_bound(
            make_node(
                OpKind.SORT,
                children=[child],
                estimated_rows=child.estimated_rows,
                startup_cost=child.cost.total + cost.startup,
                total_cost=child.cost.total + cost.total,
                width=child.width,
                sort_keys=keys,
            )
        )

    def _limit_literal(self, limit: Optional[ast.Expression]) -> Optional[float]:
        """The numeric value of a literal LIMIT/OFFSET (incl. ``-n``)."""
        if isinstance(limit, ast.Literal):
            value = limit.value
        elif (
            isinstance(limit, ast.UnaryOp)
            and limit.operator == "-"
            and isinstance(limit.operand, ast.Literal)
        ):
            value = limit.operand.value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = -value
        else:
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def _add_limit(
        self,
        child: PhysicalNode,
        limit: Optional[ast.Expression],
        offset: Optional[ast.Expression],
    ) -> PhysicalNode:
        limit_value = self._limit_literal(limit)
        # SQLite semantics (the dialect under test): a negative LIMIT means
        # "no limit", so it passes the child's full row estimate through.
        if limit_value is not None and limit_value >= 0 and child.estimated_rows > 0:
            fraction = min(float(limit_value) / child.estimated_rows, 1.0)
            rows = min(float(limit_value), child.estimated_rows)
        else:
            fraction = 1.0
            rows = child.estimated_rows
        cost = self.cost_model.limit(child.cost.total, fraction)
        return self._propagate_bound(
            make_node(
                OpKind.LIMIT,
                children=[child],
                estimated_rows=max(rows, 1.0),
                startup_cost=child.cost.startup,
                total_cost=child.cost.startup + cost.total,
                width=child.width,
                limit=limit,
                offset=offset,
            ),
            limit=(
                limit_value
                if limit_value is not None and limit_value >= 0
                else None
            ),
        )

    # ------------------------------------------------------------------ DML

    def _plan_insert(self, statement: ast.Insert) -> PhysicalNode:
        if statement.select is not None:
            source = self.plan_select(statement.select)
            rows = source.estimated_rows
        else:
            source = make_node(
                OpKind.VALUES,
                estimated_rows=float(len(statement.rows)),
                total_cost=len(statement.rows) * self.cost_model.cpu_tuple_cost,
                rows=statement.rows,
                columns=list(statement.columns),
            )
            rows = float(len(statement.rows))
        return make_node(
            OpKind.INSERT,
            children=[source],
            estimated_rows=rows,
            total_cost=source.cost.total + rows * self.cost_model.cpu_tuple_cost,
            table=statement.table,
            columns=list(statement.columns),
            statement=statement,
        )

    def _plan_update(self, statement: ast.Update) -> PhysicalNode:
        relation = _Relation(alias=statement.table, table_name=statement.table)
        if statement.where is not None:
            relation.predicates = ast.split_conjuncts(statement.where)
        resolver = self._statistics_resolver([relation])
        scan = self._plan_relation(relation, resolver)
        return make_node(
            OpKind.UPDATE,
            children=[scan],
            estimated_rows=scan.estimated_rows,
            total_cost=scan.cost.total + scan.estimated_rows * self.cost_model.cpu_tuple_cost,
            table=statement.table,
            assignments=statement.assignments,
            statement=statement,
        )

    def _plan_delete(self, statement: ast.Delete) -> PhysicalNode:
        relation = _Relation(alias=statement.table, table_name=statement.table)
        if statement.where is not None:
            relation.predicates = ast.split_conjuncts(statement.where)
        resolver = self._statistics_resolver([relation])
        scan = self._plan_relation(relation, resolver)
        return make_node(
            OpKind.DELETE,
            children=[scan],
            estimated_rows=scan.estimated_rows,
            total_cost=scan.cost.total + scan.estimated_rows * self.cost_model.cpu_tuple_cost,
            table=statement.table,
            statement=statement,
        )
