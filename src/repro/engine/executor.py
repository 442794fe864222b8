"""A tree-walking executor for physical plans.

The executor interprets :class:`~repro.optimizer.physical.PhysicalNode` trees
against a :class:`~repro.catalog.database.Database`.  Rows are dictionaries:
scan operators key columns as ``"alias.column"``; projections and aggregates
key their outputs by the select-item name.

When ``analyze=True`` each node's :class:`~repro.optimizer.physical.RuntimeStats`
is filled in (actual rows, wall-clock milliseconds), which the dialects expose
through ``EXPLAIN ANALYZE``-style properties — the Listing 4 / query 11
analysis of the paper relies on these timings.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, TableSchema
from repro.engine.expressions import (
    EvaluationContext,
    compile_expression,
    compile_predicate,
    evaluate,
    evaluate_predicate,
    resolve_column,
)
from repro.errors import ExecutionError
from repro.optimizer.physical import ATTACHED_KEYS, INIT_PLANS, OpKind, PhysicalNode
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.printer import print_expression
from repro.storage.index import key_part, sortable

Row = Dict[str, object]


class _StatementSubqueries:
    """Subquery plans and init-plan results of one top-level ``execute()``.

    Lives from the start to the end of that call, on the calling thread
    only: nothing here is stored on a plan node, so a cached plan shared by
    concurrent readers, or executed again after the heap changed, never
    sees another execution's rows.
    """

    __slots__ = ("root", "analyze", "plans", "rows")

    def __init__(self, root: PhysicalNode, analyze: bool) -> None:
        self.root = root
        self.analyze = analyze
        #: ``id(subquery AST) -> (plan, runs once)``; indexed from the
        #: plans the planner attached under *root* on first use.
        self.plans: Optional[Dict[int, Tuple[PhysicalNode, bool]]] = None
        #: ``id(subquery AST) -> rows`` of the init-plans evaluated so far.
        self.rows: Dict[int, List[Row]] = {}

    def plan_index(self) -> Dict[int, Tuple[PhysicalNode, bool]]:
        if self.plans is None:
            self.plans = {
                id(plan.info["subquery"]): (plan, key == INIT_PLANS)
                for node in self.root.walk(ATTACHED_KEYS)
                for key in ATTACHED_KEYS
                for plan in node.info.get(key, ())
            }
        return self.plans


class Executor:
    """Executes physical plans against a database."""

    #: Optional pinned :class:`~repro.catalog.database.DatabaseView` set by
    #: the serving layer for snapshot-isolated reads.  The row executor scans
    #: the live heap and ignores it (it is the semantics oracle and only ever
    #: runs under exclusive access); the vectorized executor honors it.
    snapshot_view = None

    def __init__(self, database: Database, planner: Optional[object] = None) -> None:
        self.database = database
        # The planner is only needed for subqueries the statement's planner
        # did not attach (DML, VALUES, constant SELECTs, sort / group keys);
        # it is created lazily to avoid an import cycle.
        self._planner = planner
        # Reader threads of the query service share one executor, so the
        # per-statement subquery state is kept per thread.
        self._local = threading.local()

    # ------------------------------------------------------------------ public API

    def execute(
        self,
        plan: PhysicalNode,
        analyze: bool = False,
        outer_row: Optional[Row] = None,
    ) -> List[Row]:
        """Execute *plan* and return its output rows."""
        local = self._local
        top_level = getattr(local, "subqueries", None) is None
        if top_level:
            local.subqueries = _StatementSubqueries(plan, analyze)
        started = time.perf_counter()
        try:
            rows = self._execute_node(plan, analyze=analyze, outer_row=outer_row or {})
        finally:
            if top_level:
                local.subqueries = None
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if analyze:
            plan.runtime.executed = True
            plan.runtime.actual_rows = len(rows)
            plan.runtime.actual_time_ms = elapsed_ms
            plan.runtime.loops = max(plan.runtime.loops, 1)
        return rows

    # ------------------------------------------------------------------ dispatch

    def _execute_node(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        started = time.perf_counter()
        handler = _HANDLERS.get(node.kind)
        if handler is None:
            raise ExecutionError(f"no executor for operator {node.kind.value}")
        rows = handler(self, node, analyze, outer_row)
        if analyze:
            node.runtime.executed = True
            node.runtime.actual_rows = len(rows)
            node.runtime.actual_time_ms = (time.perf_counter() - started) * 1000.0
            node.runtime.loops += 1
        return rows

    def _context(self, row: Row, outer_row: Row) -> EvaluationContext:
        # The current row's columns take precedence over (and are listed
        # before) the outer query's columns, so unqualified references inside
        # subqueries resolve to the inner scope first.  Without an outer row
        # (every top-level query) the row is used as-is: evaluation never
        # mutates context rows, so the copy would be pure overhead.
        if not outer_row:
            return EvaluationContext(row, self._run_subquery)
        merged = dict(row)
        for key, value in outer_row.items():
            merged.setdefault(key, value)
        return EvaluationContext(merged, self._run_subquery)

    def _node_predicate(self, node: PhysicalNode, key: str):
        """The compiled predicate for ``node.info[key]``, cached on the node.

        Physical plans are shared across executions by the prepared-query
        cache, so the compiled closure is computed once per (node, key) and
        reused by every later execution of the same plan.
        """
        cache = getattr(node, "_compiled", None)
        if cache is None:
            cache = {}
            node._compiled = cache
        compiled = cache.get(key)
        if compiled is None:
            compiled = compile_predicate(node.info.get(key))
            cache[key] = compiled
        return compiled

    def _node_scalar(self, node: PhysicalNode, key: str):
        """Like :meth:`_node_predicate` but compiling a scalar expression
        (the semi-join probe); cached under a distinct key space."""
        cache = getattr(node, "_compiled", None)
        if cache is None:
            cache = {}
            node._compiled = cache
        cache_key = ("scalar", key)
        compiled = cache.get(cache_key)
        if compiled is None:
            compiled = compile_expression(node.info[key])
            cache[cache_key] = compiled
        return compiled

    def _run_subquery(self, query: ast.SelectStatement, outer_row: Row) -> List[Row]:
        """The rows of subquery *query* for *outer_row* (the expression hook).

        The plan is the one the statement's planner attached for this AST.
        An init-plan runs on first reference only — so never when no outer
        row reaches it — with an empty outer row, which keeps the batch
        handlers available to it, and its rows serve every later reference
        of this statement execution.  Any other subquery runs once per
        evaluation and may read *outer_row*.
        """
        state: _StatementSubqueries = self._local.subqueries
        key = id(query)
        entry = state.plan_index().get(key)
        if entry is None:
            # Not attached: planned on first use, at most once per statement
            # execution, through the scope-relaxed entry point (it may
            # legally reference the outer row), and run per evaluation.
            entry = (self._get_planner().plan_subquery(query), False)
            state.plans[key] = entry
        plan, once = entry
        if not once:
            return self.execute(plan, analyze=False, outer_row=outer_row)
        rows = state.rows.get(key)
        if rows is None:
            rows = state.rows[key] = self.execute(plan, analyze=state.analyze)
        return rows

    def _get_planner(self):
        if self._planner is None:
            from repro.optimizer.planner import Planner

            self._planner = Planner(self.database)
        return self._planner

    # ------------------------------------------------------------------ producers

    def _execute_seq_scan(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        table = self.database.table(node.info["table"])
        alias = node.info.get("alias") or node.info["table"]
        prefix = alias + "."
        output: List[Row] = []
        append = output.append
        if node.info.get("filter") is None:
            for _, stored in table.scan():
                append({prefix + column: value for column, value in stored.items()})
            return output
        check = self._node_predicate(node, "filter")
        context = self._context
        for _, stored in table.scan():
            row = {prefix + column: value for column, value in stored.items()}
            if check(context(row, outer_row)):
                append(row)
        return output

    def _execute_index_scan(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        table = self.database.table(node.info["table"])
        alias = node.info.get("alias") or node.info["table"]
        index = self.database.index(node.info["index"])
        index_condition = node.info.get("index_condition")
        predicate = node.info.get("filter")
        bounds = _extract_bounds(index_condition, index.definition.leading_column())
        output: List[Row] = []
        if bounds is not None and bounds.equality_values is not None:
            row_ids: List[int] = []
            for value in bounds.equality_values:
                row_ids.extend(index.prefix_lookup((value,)))
        else:
            low = bounds.low if bounds else None
            high = bounds.high if bounds else None
            include_low = bounds.include_low if bounds else True
            include_high = bounds.include_high if bounds else True
            row_ids = [
                row_id
                for _, row_id in index.range_scan(low, high, include_low, include_high)
            ]
        check_index = (
            self._node_predicate(node, "index_condition")
            if index_condition is not None
            else None
        )
        check_filter = (
            self._node_predicate(node, "filter") if predicate is not None else None
        )
        prefix = alias + "."
        append = output.append
        for row_id in row_ids:
            stored = table.get(row_id)
            row = {prefix + column: value for column, value in stored.items()}
            context = self._context(row, outer_row)
            if check_index is not None and not check_index(context):
                continue
            if check_filter is None or check_filter(context):
                append(row)
        return output

    def _execute_values(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        columns: List[str] = node.info.get("columns", [])
        output: List[Row] = []
        for literal_row in node.info.get("rows", []):
            values = [
                evaluate(expression, self._context({}, outer_row))
                for expression in literal_row
            ]
            if columns:
                output.append(dict(zip(columns, values)))
            else:
                output.append({f"column{i}": value for i, value in enumerate(values, 1)})
        return output

    def _execute_subquery_scan(
        self, node: PhysicalNode, analyze: bool, outer_row: Row
    ) -> List[Row]:
        alias = node.info.get("alias", "subquery")
        inner_rows = self._execute_node(node.children[0], analyze, outer_row)
        predicate = node.info.get("filter")
        output: List[Row] = []
        for inner in inner_rows:
            row = {f"{alias}.{_strip_qualifier(key)}": value for key, value in inner.items()}
            if predicate is None or evaluate_predicate(predicate, self._context(row, outer_row)):
                output.append(row)
        return output

    def _execute_result(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        context = self._context({}, outer_row)
        where = node.info.get("where")
        if where is not None and not evaluate_predicate(where, context):
            return []
        row: Row = {}
        for expression, name in node.info.get("items", []):
            row[name] = evaluate(expression, context)
        return [row]

    # ------------------------------------------------------------------ joins

    def _execute_nested_loop_join(
        self, node: PhysicalNode, analyze: bool, outer_row: Row
    ) -> List[Row]:
        left_rows = self._execute_node(node.children[0], analyze, outer_row)
        right_rows = self._execute_node(node.children[1], analyze, outer_row)
        return self._join_rows(node, left_rows, right_rows, outer_row)

    def _execute_hash_join(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        left_rows = self._execute_node(node.children[0], analyze, outer_row)
        right_rows = self._execute_node(node.children[1], analyze, outer_row)
        return self._hash_join_rows(node, left_rows, right_rows, outer_row)

    def _hash_join_rows(
        self,
        node: PhysicalNode,
        left_rows: List[Row],
        right_rows: List[Row],
        outer_row: Row,
    ) -> List[Row]:
        """The hash-join core over materialized inputs (shared with the
        vectorized executor's row-fallback path)."""
        condition = node.info.get("condition")
        keys = _equi_join_keys(condition)
        if not keys:
            return self._join_rows(node, left_rows, right_rows, outer_row)
        # Key references and the compiled join condition are hoisted out of
        # the probe loop: they are per-node constants, not per-row facts.
        right_references = [right_key for _, right_key in keys]
        left_references = [left_key for left_key, _ in keys]
        check = self._node_predicate(node, "condition")
        context = self._context
        # Build a hash table on the right side.
        build: Dict[Tuple, List[Row]] = {}
        for right in right_rows:
            key = _hash_key(right, right_references, outer_row)
            if key is None:
                continue
            build.setdefault(key, []).append(right)
        join_type = node.info.get("join_type", "INNER")
        right_null_row = _null_row_like(right_rows)
        left_null_row = _null_row_like(left_rows)
        output: List[Row] = []
        append = output.append
        empty: List[Row] = []
        for left in left_rows:
            key = _hash_key(left, left_references, outer_row)
            matches = build.get(key, empty) if key is not None else empty
            matched = False
            for right in matches:
                combined = {**left, **right}
                if check(context(combined, outer_row)):
                    matched = True
                    append(combined)
            if not matched and join_type in ("LEFT", "FULL"):
                append({**left, **right_null_row})
        if join_type in ("RIGHT", "FULL"):
            for right in right_rows:
                has_match = any(
                    check(context({**left, **right}, outer_row))
                    for left in left_rows
                )
                if not has_match:
                    append({**left_null_row, **right})
        return output

    def _execute_merge_join(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        # Correctness first: a merge join produces the same rows as a hash join.
        return self._execute_hash_join(node, analyze, outer_row)

    def _execute_semi_join(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        left_rows = self._execute_node(node.children[0], analyze, outer_row)
        right_rows = self._execute_node(node.children[1], analyze, outer_row)
        return self._semi_join_rows(node, left_rows, right_rows, outer_row)

    def _semi_join_rows(
        self,
        node: PhysicalNode,
        left_rows: List[Row],
        right_rows: List[Row],
        outer_row: Row,
    ) -> List[Row]:
        """Hash semi / null-aware anti join over materialized inputs.

        Replicates the three-valued semantics of the per-row
        ``IN`` / ``EXISTS`` predicate evaluation it decorrelates
        (:func:`repro.engine.expressions._evaluate_in_subquery`), but builds
        the inner key set once instead of re-running the subquery per outer
        row.  Output order is the outer input's order, exactly as a filter
        preserves it (shared with the vectorized executor's row fallback).
        """
        anti = node.kind is OpKind.ANTI_JOIN
        if node.info.get("quantifier") == "exists":
            # Uncorrelated EXISTS is a pure emptiness test on the inner side.
            keep = bool(right_rows) != anti
            return list(left_rows) if keep else []
        inner_keys = set()
        saw_null = False
        for right in right_rows:
            value = next(iter(right.values())) if right else None
            if value is None:
                saw_null = True
            else:
                inner_keys.add(_semi_join_key(value))
        if anti and not right_rows:
            # ``x NOT IN (empty)`` is TRUE for every x — even NULL.
            return list(left_rows)
        if anti and saw_null:
            # The NOT IN + inner-NULL trap: with a NULL in the inner
            # relation the predicate is never TRUE (matches are FALSE,
            # non-matches are NULL), so the result is empty.
            return []
        probe = self._node_scalar(node, "probe")
        context = self._context
        output: List[Row] = []
        append = output.append
        for left in left_rows:
            value = probe(context(left, outer_row))
            if value is None:
                # A NULL probe value never compares TRUE.
                continue
            if (_semi_join_key(value) in inner_keys) != anti:
                append(left)
        return output

    def _join_rows(
        self,
        node: PhysicalNode,
        left_rows: List[Row],
        right_rows: List[Row],
        outer_row: Row,
    ) -> List[Row]:
        check = self._node_predicate(node, "condition")
        context = self._context
        join_type = node.info.get("join_type", "INNER")
        right_null_row = _null_row_like(right_rows)
        left_null_row = _null_row_like(left_rows)
        output: List[Row] = []
        matched_right_ids: set = set()
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = {**left, **right}
                if check(context(combined, outer_row)):
                    matched = True
                    matched_right_ids.add(id(right))
                    output.append(combined)
            if not matched and join_type in ("LEFT", "FULL"):
                output.append({**left, **right_null_row})
        if join_type in ("RIGHT", "FULL"):
            for right in right_rows:
                if id(right) not in matched_right_ids:
                    output.append({**left_null_row, **right})
        return output

    # ------------------------------------------------------------------ folders

    def _execute_aggregate(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        input_rows = self._execute_node(node.children[0], analyze, outer_row)
        group_keys: List[ast.Expression] = node.info.get("group_keys", [])
        aggregates: List[ast.FunctionCall] = node.info.get("aggregates", [])
        if node.info.get("deduplicate"):
            return _dedupe_rows(input_rows)
        if not group_keys and not aggregates:
            return input_rows

        groups: Dict[Tuple, List[Row]] = {}
        group_order: List[Tuple] = []
        for row in input_rows:
            context = self._context(row, outer_row)
            key = tuple(
                _normalise_value(evaluate(expression, context)) for expression in group_keys
            )
            if key not in groups:
                groups[key] = []
                group_order.append(key)
            groups[key].append(row)

        if not group_keys and not input_rows:
            # Aggregates over an empty input produce one row of "empty" values.
            groups[()] = []
            group_order.append(())

        output: List[Row] = []
        for key in group_order:
            member_rows = groups[key]
            representative = member_rows[0] if member_rows else {}
            result: Row = {}
            for expression, _key_value in zip(group_keys, key):
                name = print_expression(expression)
                if member_rows:
                    value = evaluate(expression, self._context(representative, outer_row))
                else:
                    value = None
                result[name] = value
                if isinstance(expression, ast.ColumnRef):
                    qualified = (
                        f"{expression.table}.{expression.column}"
                        if expression.table
                        else expression.column
                    )
                    result[qualified] = value
                    result[expression.column] = value
            for aggregate in aggregates:
                result[print_expression(aggregate)] = self._compute_aggregate(
                    aggregate, member_rows, outer_row
                )
            output.append(result)
        return output

    def _compute_aggregate(
        self, aggregate: ast.FunctionCall, rows: List[Row], outer_row: Row
    ) -> object:
        if aggregate.star:
            values: List[object] = [1] * len(rows)
        else:
            argument = aggregate.arguments[0] if aggregate.arguments else None
            values = []
            for row in rows:
                if argument is None:
                    values.append(1)
                else:
                    values.append(evaluate(argument, self._context(row, outer_row)))
        return fold_aggregate(aggregate, values)

    # ------------------------------------------------------------------ combinators

    def _execute_sort(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        rows = self._execute_node(node.children[0], analyze, outer_row)
        keys: List[Tuple[ast.Expression, bool]] = node.info.get("sort_keys", [])
        sorted_rows = _sort_rows(rows, keys, lambda row: self._context(row, outer_row))
        if node.kind is OpKind.TOP_N:
            limit_expression = node.info.get("limit")
            limit_value = (
                evaluate(limit_expression, self._context({}, outer_row))
                if limit_expression is not None
                else None
            )
            if isinstance(limit_value, (int, float)) and int(limit_value) >= 0:
                return sorted_rows[: int(limit_value)]
            # SQLite semantics (the dialect under test): a negative LIMIT
            # means "no limit".
        return sorted_rows

    def _execute_limit(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        rows = self._execute_node(node.children[0], analyze, outer_row)
        context = self._context({}, outer_row)
        offset_expression = node.info.get("offset")
        limit_expression = node.info.get("limit")
        start = 0
        if offset_expression is not None:
            offset_value = evaluate(offset_expression, context)
            if isinstance(offset_value, (int, float)):
                start = max(int(offset_value), 0)
        end: Optional[int] = None
        if limit_expression is not None:
            limit_value = evaluate(limit_expression, context)
            # SQLite semantics (the dialect under test): a negative LIMIT
            # means "no limit" — only non-negative values bound the slice.
            if isinstance(limit_value, (int, float)) and int(limit_value) >= 0:
                end = start + int(limit_value)
        return rows[start:end]

    def _execute_distinct(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        return _dedupe_rows(self._execute_node(node.children[0], analyze, outer_row))

    def _execute_append(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        outputs = [self._execute_node(child, analyze, outer_row) for child in node.children]
        return _positional_union(outputs)

    def _execute_intersect(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        left = self._execute_node(node.children[0], analyze, outer_row)
        right = self._execute_node(node.children[1], analyze, outer_row)
        right_keys = {tuple(_normalise_value(v) for v in row.values()) for row in right}
        output = [
            row
            for row in left
            if tuple(_normalise_value(v) for v in row.values()) in right_keys
        ]
        return _dedupe_rows(output)

    def _execute_except(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        left = self._execute_node(node.children[0], analyze, outer_row)
        right = self._execute_node(node.children[1], analyze, outer_row)
        right_keys = {tuple(_normalise_value(v) for v in row.values()) for row in right}
        output = [
            row
            for row in left
            if tuple(_normalise_value(v) for v in row.values()) not in right_keys
        ]
        return _dedupe_rows(output)

    # ------------------------------------------------------------------ executors

    def _execute_filter(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        rows = self._execute_node(node.children[0], analyze, outer_row)
        check = self._node_predicate(node, "predicate")
        context = self._context
        return [row for row in rows if check(context(row, outer_row))]

    def _execute_passthrough(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        return self._execute_node(node.children[0], analyze, outer_row)

    def _execute_project(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        rows = self._execute_node(node.children[0], analyze, outer_row)
        items: List[Tuple[ast.Expression, str]] = node.info.get("items", [])
        # Grouped expression columns pass through by their printed text: an
        # aggregation below keys each group-key value under
        # ``print_expression(key)``, exactly as aggregate results are read
        # back (see ``evaluate``'s aggregate case), so re-evaluating the
        # expression against the aggregated row would wrongly look for its
        # base columns.  The printed names are cached on the (shared) node
        # like every other per-node compiled artifact.
        cache = getattr(node, "_compiled", None)
        if cache is None:
            cache = {}
            node._compiled = cache
        printed = cache.get(("printed", "items"))
        if printed is None:
            printed = [
                None
                if isinstance(expression, ast.Star)
                else print_expression(expression)
                for expression, _ in items
            ]
            cache[("printed", "items")] = printed
        output: List[Row] = []
        for row in rows:
            context = self._context(row, outer_row)
            projected: Row = {}
            for (expression, name), text in zip(items, printed):
                if isinstance(expression, ast.Star):
                    if expression.table:
                        prefix = expression.table + "."
                        for key, value in row.items():
                            if key.startswith(prefix):
                                projected[key] = value
                    else:
                        projected.update(row)
                elif text in row and not isinstance(expression, ast.ColumnRef):
                    projected[name] = row[text]
                else:
                    projected[name] = evaluate(expression, context)
            output.append(projected)
        return output

    # ------------------------------------------------------------------ consumers

    def _execute_insert(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.Insert = node.info["statement"]
        table = self.database.table(statement.table)
        schema_columns = table.schema.column_names()
        target_columns = statement.columns or schema_columns
        rows_to_insert: List[Row] = []
        if statement.select is not None:
            source_rows = self._execute_node(node.children[0], analyze, outer_row)
            for source in source_rows:
                values = list(source.values())
                rows_to_insert.append(dict(zip(target_columns, values)))
        else:
            for literal_row in statement.rows:
                values = [
                    evaluate(expression, self._context({}, outer_row))
                    for expression in literal_row
                ]
                rows_to_insert.append(dict(zip(target_columns, values)))
        inserted = self.database.insert_rows(statement.table, rows_to_insert)
        return [{"inserted": inserted}]

    def _execute_update(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.Update = node.info["statement"]
        table = self.database.table(statement.table)
        alias = statement.table
        row_ids: List[int] = []
        changes: List[Row] = []
        check = compile_predicate(statement.where)
        for row_id, stored in list(table.scan()):
            row = {f"{alias}.{column}": value for column, value in stored.items()}
            if check(self._context(row, outer_row)):
                new_values: Row = {}
                for column, expression in statement.assignments:
                    new_values[column] = evaluate(expression, self._context(row, outer_row))
                row_ids.append(row_id)
                changes.append(new_values)
        updated = self.database.update_rows(statement.table, row_ids, changes)
        return [{"updated": updated}]

    def _execute_delete(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.Delete = node.info["statement"]
        table = self.database.table(statement.table)
        alias = statement.table
        row_ids: List[int] = []
        check = compile_predicate(statement.where)
        for row_id, stored in list(table.scan()):
            row = {f"{alias}.{column}": value for column, value in stored.items()}
            if check(self._context(row, outer_row)):
                row_ids.append(row_id)
        deleted = self.database.delete_rows(statement.table, row_ids)
        return [{"deleted": deleted}]

    def _execute_create_table(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.CreateTable = node.info["statement"]
        columns = [
            Column(
                name=definition.name,
                data_type=DataType.from_sql(definition.type_name),
                nullable=not definition.not_null and not definition.primary_key,
                primary_key=definition.primary_key,
                unique=definition.unique,
                default=(
                    definition.default.value
                    if isinstance(definition.default, ast.Literal)
                    else None
                ),
            )
            for definition in statement.columns
        ]
        self.database.create_table(
            TableSchema(name=statement.name, columns=columns),
            if_not_exists=statement.if_not_exists,
        )
        return [{"created": statement.name}]

    def _execute_create_index(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.CreateIndex = node.info["statement"]
        self.database.create_index(
            statement.name, statement.table, statement.columns, statement.unique
        )
        return [{"created": statement.name}]

    def _execute_drop_table(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        statement: ast.DropTable = node.info["statement"]
        self.database.drop_table(statement.name, if_exists=statement.if_exists)
        return [{"dropped": statement.name}]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


class _Bounds:
    """Bounds extracted from an index condition on the leading column."""

    __slots__ = ("low", "high", "include_low", "include_high", "equality_values")

    def __init__(self) -> None:
        self.low: Optional[object] = None
        self.high: Optional[object] = None
        self.include_low = True
        self.include_high = True
        self.equality_values: Optional[List[object]] = None


def _extract_bounds(
    condition: Optional[ast.Expression], leading_column: str
) -> Optional[_Bounds]:
    if condition is None:
        return None
    bounds = _Bounds()
    found = False
    for conjunct in ast.split_conjuncts(condition):
        if isinstance(conjunct, ast.BinaryOp) and isinstance(conjunct.left, ast.ColumnRef):
            if conjunct.left.column.lower() != leading_column.lower():
                continue
            if not isinstance(conjunct.right, ast.Literal):
                continue
            value = conjunct.right.value
            operator = conjunct.operator
        elif isinstance(conjunct, ast.BinaryOp) and isinstance(conjunct.right, ast.ColumnRef):
            if conjunct.right.column.lower() != leading_column.lower():
                continue
            if not isinstance(conjunct.left, ast.Literal):
                continue
            value = conjunct.left.value
            operator = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                conjunct.operator, conjunct.operator
            )
        elif isinstance(conjunct, ast.Between) and isinstance(
            conjunct.expression, ast.ColumnRef
        ):
            if conjunct.expression.column.lower() != leading_column.lower():
                continue
            if isinstance(conjunct.low, ast.Literal):
                bounds.low = conjunct.low.value
            if isinstance(conjunct.high, ast.Literal):
                bounds.high = conjunct.high.value
            found = True
            continue
        elif isinstance(conjunct, ast.InList) and isinstance(
            conjunct.expression, ast.ColumnRef
        ):
            if conjunct.expression.column.lower() != leading_column.lower() or conjunct.negated:
                continue
            if all(isinstance(item, ast.Literal) for item in conjunct.items):
                # One lookup per distinct index key, first appearance kept:
                # ``IN (1, 1)`` or ``IN (1, 1.0)`` must not fetch a row twice.
                distinct: Dict[object, object] = {}
                for item in conjunct.items:
                    distinct.setdefault(key_part(item.value), item.value)
                bounds.equality_values = list(distinct.values())
                found = True
            continue
        else:
            continue
        found = True
        if operator == "=":
            bounds.equality_values = [value]
        elif operator in {"<", "<="}:
            bounds.high = value
            bounds.include_high = operator == "<="
        elif operator in {">", ">="}:
            bounds.low = value
            bounds.include_low = operator == ">="
    return bounds if found else None


def _strip_qualifier(key: str) -> str:
    return key.split(".", 1)[1] if "." in key else key


def _null_row_like(rows: List[Row]) -> Row:
    """A row with every column of *rows* set to NULL (outer-join padding)."""
    if not rows:
        return {}
    return {key: None for key in rows[0]}


def _equi_join_keys(
    condition: Optional[ast.Expression],
) -> List[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    keys: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = []
    for conjunct in ast.split_conjuncts(condition):
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.operator == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            keys.append((conjunct.left, conjunct.right))
    return keys


def _hash_key(
    row: Row, references: Sequence[ast.ColumnRef], outer_row: Row
) -> Optional[Tuple]:
    values = []
    source = {**outer_row, **row} if outer_row else row
    for reference in references:
        try:
            value = resolve_column(source, reference)
        except ExecutionError:
            return None
        if value is None:
            return None
        values.append(_normalise_value(value))
    return tuple(values)


def _semi_join_key(value: object) -> object:
    """Set key for semi/anti-join probes, matching ``_compare("=", …)``.

    ``_compare`` implements SQL ``=`` as Python ``==``, and Python's own
    hash/equality contract already gives exactly those equality classes for
    the engine's scalar domain: ``1 == 1.0 == True`` across int/float/bool,
    *exact* for integers beyond 2**53 (which a float coercion would
    collide), and type-distinct for strings.  So the value itself is the
    key — never :func:`_normalise_value`, whose float-coercing sort keys
    serve ordering, not equality.  Callers handle NULL before keying.
    """
    return value


def _normalise_value(value: object) -> object:
    """Make a value hashable and comparable across int/float."""
    if isinstance(value, bool):
        return ("b", int(value))
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if value is None:
        return ("z", "")
    return ("s", str(value))


def fold_aggregate(aggregate: ast.FunctionCall, values: List[object]) -> object:
    """Fold one aggregate over its collected per-group argument values.

    The single definition of DISTINCT normalisation, NULL handling, and the
    numeric folds — shared by the row executor (which collects the values
    per member row) and the vectorized executor (which slices them out of
    batch-evaluated argument columns), so the two can never drift apart.
    """
    name = aggregate.name.upper()
    non_null = [value for value in values if value is not None]
    if aggregate.distinct:
        seen = set()
        unique = []
        for value in non_null:
            marker = _normalise_value(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        non_null = unique
    if name == "COUNT":
        return len(values) if aggregate.star else len(non_null)
    if not non_null:
        return None
    if name == "SUM":
        return sum(non_null)
    if name == "AVG":
        return sum(non_null) / len(non_null)
    if name == "MIN":
        return min(non_null)
    if name == "MAX":
        return max(non_null)
    raise ExecutionError(f"unknown aggregate {aggregate.name!r}")


def _dedupe_rows(rows: List[Row]) -> List[Row]:
    seen = set()
    output: List[Row] = []
    for row in rows:
        key = tuple(_normalise_value(value) for value in row.values())
        if key not in seen:
            seen.add(key)
            output.append(row)
    return output


def _positional_union(outputs: List[List[Row]]) -> List[Row]:
    """Concatenate child outputs, aligning columns by position with the first child."""
    non_empty = [rows for rows in outputs if rows]
    if not non_empty:
        return []
    template_keys = list(non_empty[0][0].keys())
    combined: List[Row] = []
    for rows in outputs:
        for row in rows:
            values = list(row.values())
            if list(row.keys()) == template_keys or len(values) != len(template_keys):
                combined.append(row)
            else:
                combined.append(dict(zip(template_keys, values)))
    return combined


def _sort_rows(
    rows: List[Row],
    keys: List[Tuple[ast.Expression, bool]],
    context_factory: Callable[[Row], EvaluationContext],
) -> List[Row]:
    if not keys:
        return list(rows)

    decorated = []
    for position, row in enumerate(rows):
        context = context_factory(row)
        sort_values = []
        for expression, descending in keys:
            try:
                value = evaluate(expression, context)
            except ExecutionError:
                value = None
            sort_values.append((value, descending))
        decorated.append((sort_values, position, row))

    def compare_key(item):
        sort_values, position, _ = item
        components = []
        for value, descending in sort_values:
            wrapped = sortable((value,))[0]
            components.append((wrapped, descending))
        return _ComparableKey(components, position)

    return [row for _, _, row in sorted(decorated, key=compare_key)]


class _ComparableKey:
    """Sort key supporting per-component descending order."""

    __slots__ = ("components", "position")

    def __init__(self, components, position: int) -> None:
        self.components = components
        self.position = position

    def __lt__(self, other: "_ComparableKey") -> bool:
        for (left, descending), (right, _) in zip(self.components, other.components):
            if left == right:
                continue
            if descending:
                return right < left
            return left < right
        return self.position < other.position

    def __eq__(self, other: object) -> bool:  # pragma: no cover - required pair
        return (
            isinstance(other, _ComparableKey)
            and self.components == other.components
            and self.position == other.position
        )


_HANDLERS: Dict[OpKind, Callable[[Executor, PhysicalNode, bool, Row], List[Row]]] = {
    OpKind.SEQ_SCAN: Executor._execute_seq_scan,
    OpKind.INDEX_SCAN: Executor._execute_index_scan,
    OpKind.INDEX_ONLY_SCAN: Executor._execute_index_scan,
    OpKind.VALUES: Executor._execute_values,
    OpKind.SUBQUERY_SCAN: Executor._execute_subquery_scan,
    OpKind.RESULT: Executor._execute_result,
    OpKind.NESTED_LOOP_JOIN: Executor._execute_nested_loop_join,
    OpKind.HASH_JOIN: Executor._execute_hash_join,
    OpKind.MERGE_JOIN: Executor._execute_merge_join,
    OpKind.SEMI_JOIN: Executor._execute_semi_join,
    OpKind.ANTI_JOIN: Executor._execute_semi_join,
    OpKind.HASH_AGGREGATE: Executor._execute_aggregate,
    OpKind.SORT_AGGREGATE: Executor._execute_aggregate,
    OpKind.SORT: Executor._execute_sort,
    OpKind.TOP_N: Executor._execute_sort,
    OpKind.LIMIT: Executor._execute_limit,
    OpKind.DISTINCT: Executor._execute_distinct,
    OpKind.APPEND: Executor._execute_append,
    OpKind.INTERSECT: Executor._execute_intersect,
    OpKind.EXCEPT: Executor._execute_except,
    OpKind.PROJECT: Executor._execute_project,
    OpKind.FILTER: Executor._execute_filter,
    OpKind.MATERIALIZE: Executor._execute_passthrough,
    OpKind.GATHER: Executor._execute_passthrough,
    OpKind.HASH_BUILD: Executor._execute_passthrough,
    OpKind.INSERT: Executor._execute_insert,
    OpKind.UPDATE: Executor._execute_update,
    OpKind.DELETE: Executor._execute_delete,
    OpKind.CREATE_TABLE: Executor._execute_create_table,
    OpKind.CREATE_INDEX: Executor._execute_create_index,
    OpKind.DROP_TABLE: Executor._execute_drop_table,
}
