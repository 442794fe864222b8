"""Simulated MySQL dialect.

MySQL 8 exposes query plans in three official formats (Table III of the
paper): the traditional tabular ``EXPLAIN`` output, ``FORMAT=JSON`` and the
Workbench graph view.  We additionally provide ``FORMAT=TREE`` (introduced in
8.0.16) since the converters exercise it.  The plan vocabulary is compact —
MySQL does not expose separate projection or filter operators — which is why
its query plans carry fewer operations than PostgreSQL's or TiDB's
(Table VI).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.formats.json_emit import dumps_indented
from repro.core.formats.table_format import ascii_table
from repro.core.model import walk_tree
from repro.dialects.base import (
    RawPlan,
    RawPlanNode,
    RelationalDialect,
    format_number,
    plan_document,
    render_dot_plan,
)
from repro.errors import DialectError
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class MySQLDialect(RelationalDialect):
    """The simulated MySQL 8.0.32 instance."""

    name = "mysql"
    version = "8.0.32"
    data_model = "relational"
    plan_formats = ("table", "json", "tree", "graph")
    default_format = "table"

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=True,
            enable_merge_join=False,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=False,
            enable_top_n=False,
        )

    def cost_model(self) -> CostModel:
        return CostModel(random_page_cost=2.0, cpu_tuple_cost=0.02)

    # ------------------------------------------------------------------ shaping

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        root = self._shape(physical, analyze)
        return RawPlan(root=root, properties={})

    def _cost_props(self, node: PhysicalNode, analyze: bool) -> Dict[str, Any]:
        properties: Dict[str, Any] = {
            "cost": round(node.cost.total, 2),
            "rows": int(max(node.estimated_rows, 1)),
        }
        if analyze and node.runtime.executed:
            properties["actual_rows"] = node.runtime.actual_rows
            properties["actual_time_ms"] = round(node.runtime.actual_time_ms, 3)
            properties["estimate_factor"] = round(
                node.runtime.actual_rows / max(node.estimated_rows, 1.0), 2
            )
            bound = node.info.get("size_bound")
            if bound is not None:
                properties["size_bound"] = int(bound)
        return properties

    def _shape(self, node: PhysicalNode, analyze: bool) -> RawPlanNode:
        kind = node.kind
        children = [self._shape(child, analyze) for child in node.children]
        properties = self._cost_props(node, analyze)

        if kind is OpKind.SEQ_SCAN:
            raw = RawPlanNode(f"Table scan on {node.info.get('table')}", properties)
            raw.properties["table"] = node.info.get("table")
            raw.properties["access_type"] = "ALL"
            if node.info.get("filter") is not None:
                parent = RawPlanNode(
                    f"Filter: {print_expression(node.info['filter'])}", dict(properties)
                )
                parent.properties["attached_condition"] = print_expression(node.info["filter"])
                parent.children.append(raw)
                return parent
            return raw

        if kind in (OpKind.INDEX_SCAN, OpKind.INDEX_ONLY_SCAN):
            access = "ref" if kind is OpKind.INDEX_SCAN else "index"
            condition = node.info.get("index_condition")
            label = (
                f"Index lookup on {node.info.get('table')} using {node.info.get('index')}"
                if condition is not None
                else f"Index scan on {node.info.get('table')} using {node.info.get('index')}"
            )
            raw = RawPlanNode(label, properties)
            raw.properties["table"] = node.info.get("table")
            raw.properties["key"] = node.info.get("index")
            raw.properties["access_type"] = access
            if condition is not None:
                raw.properties["index_condition"] = print_expression(condition)
            if node.info.get("filter") is not None:
                raw.properties["attached_condition"] = print_expression(node.info["filter"])
            return raw

        if kind is OpKind.SUBQUERY_SCAN:
            raw = RawPlanNode(
                f"Materialize derived table {node.info.get('alias')}", properties, children
            )
            raw.properties["table"] = node.info.get("alias")
            raw.properties["access_type"] = "ALL"
            return raw

        if kind in (OpKind.VALUES, OpKind.RESULT):
            return RawPlanNode("Rows fetched before execution", properties, children)

        if kind is OpKind.HASH_JOIN:
            join_type = node.info.get("join_type", "INNER").lower()
            raw = RawPlanNode(f"Hash {join_type} join", properties, children)
            if node.info.get("condition") is not None:
                raw.properties["join_condition"] = print_expression(node.info["condition"])
            return raw

        if kind in (OpKind.NESTED_LOOP_JOIN, OpKind.MERGE_JOIN):
            join_type = node.info.get("join_type", "INNER").lower()
            raw = RawPlanNode(f"Nested loop {join_type} join", properties, children)
            if node.info.get("condition") is not None:
                raw.properties["join_condition"] = print_expression(node.info["condition"])
            return raw

        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            # MySQL 8 FORMAT=TREE spells decorrelated IN/EXISTS like this.
            label = "Hash semijoin" if kind is OpKind.SEMI_JOIN else "Hash antijoin"
            raw = RawPlanNode(label, properties, children)
            if node.info.get("probe") is not None:
                raw.properties["join_condition"] = (
                    f"{print_expression(node.info['probe'])} = "
                    f"{node.info.get('inner_column')}"
                )
            return raw

        if kind in (OpKind.HASH_AGGREGATE, OpKind.SORT_AGGREGATE):
            group_keys = node.info.get("group_keys", [])
            if node.info.get("deduplicate") or node.info.get("set_operator") == "UNION":
                return RawPlanNode("Union materialize with deduplication", properties, children)
            if group_keys:
                label = "Aggregate using temporary table"
                raw = RawPlanNode(label, properties, children)
                raw.properties["group_by"] = ", ".join(
                    print_expression(key) for key in group_keys
                )
            else:
                raw = RawPlanNode("Aggregate: no GROUP BY", properties, children)
            aggregates = node.info.get("aggregates", [])
            if aggregates:
                raw.properties["functions"] = ", ".join(
                    print_expression(aggregate) for aggregate in aggregates
                )
            return raw

        if kind is OpKind.FILTER:
            predicate = node.info.get("predicate")
            raw = RawPlanNode(
                f"Filter: {print_expression(predicate)}" if predicate is not None else "Filter",
                properties,
                children,
            )
            if predicate is not None:
                raw.properties["attached_condition"] = print_expression(predicate)
            for subplan in node.attached_plans():
                child = self._shape(subplan, analyze)
                child.properties["select_type"] = "SUBQUERY"
                raw.children.append(child)
            return raw

        if kind is OpKind.PROJECT:
            # MySQL does not expose a projection operator.
            return children[0]

        if kind is OpKind.DISTINCT:
            return RawPlanNode("Temporary table with deduplication", properties, children)

        if kind in (OpKind.SORT, OpKind.TOP_N):
            keys = node.info.get("sort_keys", [])
            rendered = ", ".join(
                print_expression(expression) + (" DESC" if descending else "")
                for expression, descending in keys
            )
            raw = RawPlanNode(f"Sort: {rendered}" if rendered else "Sort", properties, children)
            raw.properties["sort_key"] = rendered
            return raw

        if kind is OpKind.LIMIT:
            limit_expression = node.info.get("limit")
            hint = (
                f"Limit: {print_expression(limit_expression)} row(s)"
                if limit_expression is not None
                else "Limit"
            )
            return RawPlanNode(hint, properties, children)

        if kind is OpKind.APPEND:
            return RawPlanNode("Append", properties, children)
        if kind is OpKind.INTERSECT:
            return RawPlanNode("Intersect materialize", properties, children)
        if kind is OpKind.EXCEPT:
            return RawPlanNode("Except materialize", properties, children)
        if kind in (OpKind.MATERIALIZE, OpKind.GATHER, OpKind.HASH_BUILD):
            return RawPlanNode("Materialize", properties, children)

        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            raw = RawPlanNode(f"{kind.value} on {node.info.get('table')}", properties, children)
            raw.properties["table"] = node.info.get("table")
            return raw
        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            return RawPlanNode(f"Utility {kind.value}", properties, children)

        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name == "table":
            return self._serialize_table(plan)
        if format_name == "json":
            return self._serialize_json(plan)
        if format_name == "tree":
            return self._serialize_tree(plan)
        if format_name == "graph":
            return render_dot_plan(
                plan, "mysql_plan", ["rankdir=BT", "node [shape=record]"], upward=True
            )
        raise DialectError(self.name, f"unknown format {format_name!r}")

    _TABLE_COLUMNS = (
        "id", "select_type", "table", "type", "possible_keys", "key", "rows", "filtered", "Extra"
    )

    def _table_row(self, node_id: int, node: RawPlanNode) -> List[str]:
        key = node.properties.get("key", "")
        extras = []
        if "attached_condition" in node.properties:
            extras.append("Using where")
        if "index_condition" in node.properties:
            extras.append("Using index condition")
        if node.name.startswith("Sort"):
            extras.append("Using filesort")
        if "temporary" in node.name.lower():
            extras.append("Using temporary")
        return [
            str(node_id),
            node.properties.get("select_type", "SIMPLE"),
            node.properties.get("table", "") or "",
            node.properties.get("access_type", ""),
            key or "",
            key or "",
            str(node.properties.get("rows", "")),
            "100.00",
            "; ".join(extras),
        ]

    def _serialize_table(self, plan: RawPlan) -> str:
        # The tabular format only lists table-access rows, as real MySQL
        # does, numbered from 2 below a blank first row.
        nodes = [
            node
            for node, _, _, _, _, exit in walk_tree(plan.root)
            if not exit and node.properties.get("table")
        ]
        if not nodes and plan.root is not None:
            nodes = [plan.root]
        rows = [self._table_row(1, RawPlanNode(""))]
        rows.extend(self._table_row(node_id, node) for node_id, node in enumerate(nodes, 2))
        return ascii_table(self._TABLE_COLUMNS, rows, ())

    def _serialize_json(self, plan: RawPlan) -> str:
        document = {
            "query_block": {
                "select_id": 1,
                "cost_info": {
                    "query_cost": str(
                        plan.root.properties.get("cost", 0.0) if plan.root else 0.0
                    )
                },
            }
        }
        if plan.root is not None:
            document["query_block"]["plan"] = plan_document(
                plan.root, "operation", "nested_operations", hidden=("select_type",)
            )
        return dumps_indented(document)

    def _serialize_tree(self, plan: RawPlan) -> str:
        return "\n".join(
            f"{'    ' * depth}-> {node.name}  "
            f"(cost={node.properties.get('cost', 0.0)} rows={node.properties.get('rows', 0)})"
            for node, depth, _, _, _, exit in walk_tree(plan.root)
            if not exit
        )
