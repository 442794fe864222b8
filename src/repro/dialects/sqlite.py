"""Simulated SQLite dialect.

SQLite exposes ``EXPLAIN QUERY PLAN`` as a compact textual tree (Listing 1 of
the paper) and nothing else — its low-level ``EXPLAIN`` bytecode output is not
a query plan representation in the paper's sense.  The vocabulary is small
(Table II counts only 17 operations and 3 properties): scans, searches with
index annotations, temporary B-trees for grouping/ordering, and compound
query combinators.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.model import walk_tree
from repro.dialects.base import RawPlan, RawPlanNode, RelationalDialect
from repro.errors import DialectError
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class SQLiteDialect(RelationalDialect):
    """The simulated SQLite 3.41.2 instance."""

    name = "sqlite"
    version = "3.41.2"
    data_model = "relational"
    plan_formats = ("text",)
    default_format = "text"

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=False,
            enable_merge_join=False,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=False,
            enable_top_n=False,
            # SQLite aggressively builds automatic indexes for joins.
            index_selectivity_threshold=0.6,
        )

    def cost_model(self) -> CostModel:
        return CostModel(random_page_cost=1.2, cpu_tuple_cost=0.005)

    # ------------------------------------------------------------------ shaping

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        nodes = self._flatten(physical)
        if len(nodes) == 1:
            return RawPlan(root=nodes[0])
        root = RawPlanNode("QUERY PLAN", {}, nodes)
        return RawPlan(root=root)

    def _flatten(self, node: PhysicalNode) -> List[RawPlanNode]:
        """SQLite's EXPLAIN QUERY PLAN lists steps rather than a full operator tree."""
        kind = node.kind

        if kind is OpKind.SEQ_SCAN:
            return [RawPlanNode(f"SCAN {node.info.get('table')}", {"table": node.info.get("table")})]
        if kind is OpKind.INDEX_SCAN:
            condition = node.info.get("index_condition")
            suffix = f" ({print_expression(condition)})" if condition is not None else ""
            return [
                RawPlanNode(
                    f"SEARCH {node.info.get('table')} USING INDEX {node.info.get('index')}{suffix}",
                    {"table": node.info.get("table"), "index": node.info.get("index")},
                )
            ]
        if kind is OpKind.INDEX_ONLY_SCAN:
            condition = node.info.get("index_condition")
            suffix = f" ({print_expression(condition)})" if condition is not None else ""
            return [
                RawPlanNode(
                    f"SEARCH {node.info.get('table')} USING COVERING INDEX "
                    f"{node.info.get('index')}{suffix}",
                    {"table": node.info.get("table"), "index": node.info.get("index")},
                )
            ]
        if kind is OpKind.SUBQUERY_SCAN:
            inner = self._flatten(node.children[0])
            wrapper = RawPlanNode(f"CO-ROUTINE {node.info.get('alias', 'subquery')}", {}, inner)
            return [wrapper]
        if kind in (OpKind.VALUES, OpKind.RESULT):
            return [RawPlanNode("SCAN CONSTANT ROW", {})]

        if kind in (OpKind.NESTED_LOOP_JOIN, OpKind.HASH_JOIN, OpKind.MERGE_JOIN):
            steps = self._flatten(node.children[0]) + self._flatten(node.children[1])
            # SQLite turns the inner side of a join into an automatic index
            # search when the join has an equality condition.
            if node.info.get("condition") is not None and len(steps) >= 2:
                inner = steps[-1]
                if inner.name.startswith("SCAN ") and inner.properties.get("table"):
                    inner.name = (
                        f"SEARCH {inner.properties['table']} USING AUTOMATIC COVERING INDEX"
                    )
            return steps

        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            # SQLite shows a decorrelated IN/EXISTS as the outer scan plus a
            # LIST SUBQUERY step holding the materialized inner query.
            steps = self._flatten(node.children[0])
            steps.append(
                RawPlanNode("LIST SUBQUERY", {}, self._flatten(node.children[1]))
            )
            return steps

        if kind in (OpKind.HASH_AGGREGATE, OpKind.SORT_AGGREGATE):
            steps = self._flatten(node.children[0]) if node.children else []
            if node.info.get("group_keys") or node.info.get("deduplicate"):
                steps.append(RawPlanNode("USE TEMP B-TREE FOR GROUP BY", {}))
            return steps
        if kind is OpKind.DISTINCT:
            steps = self._flatten(node.children[0])
            steps.append(RawPlanNode("USE TEMP B-TREE FOR DISTINCT", {}))
            return steps
        if kind in (OpKind.SORT, OpKind.TOP_N):
            steps = self._flatten(node.children[0])
            steps.append(RawPlanNode("USE TEMP B-TREE FOR ORDER BY", {}))
            return steps
        if kind is OpKind.LIMIT:
            return self._flatten(node.children[0])
        if kind is OpKind.FILTER:
            steps = self._flatten(node.children[0])
            for subplan in node.attached_plans():
                inner = self._flatten(subplan)
                steps.append(RawPlanNode("LIST SUBQUERY", {}, inner))
            return steps
        if kind is OpKind.PROJECT:
            return self._flatten(node.children[0])

        if kind is OpKind.APPEND:
            children: List[RawPlanNode] = []
            for index, child in enumerate(node.children):
                inner = self._flatten(child)
                label = "LEFT-MOST SUBQUERY" if index == 0 else "UNION ALL"
                if node.info.get("set_operator") == "UNION":
                    label = "LEFT-MOST SUBQUERY" if index == 0 else "UNION USING TEMP B-TREE"
                children.append(RawPlanNode(label, {}, inner))
            return [RawPlanNode("COMPOUND QUERY", {}, children)]
        if kind is OpKind.INTERSECT:
            children = [
                RawPlanNode("LEFT-MOST SUBQUERY", {}, self._flatten(node.children[0])),
                RawPlanNode("INTERSECT USING TEMP B-TREE", {}, self._flatten(node.children[1])),
            ]
            return [RawPlanNode("COMPOUND QUERY", {}, children)]
        if kind is OpKind.EXCEPT:
            children = [
                RawPlanNode("LEFT-MOST SUBQUERY", {}, self._flatten(node.children[0])),
                RawPlanNode("EXCEPT USING TEMP B-TREE", {}, self._flatten(node.children[1])),
            ]
            return [RawPlanNode("COMPOUND QUERY", {}, children)]

        if kind in (OpKind.MATERIALIZE, OpKind.GATHER, OpKind.HASH_BUILD):
            return self._flatten(node.children[0])
        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            steps = []
            for child in node.children:
                steps.extend(self._flatten(child))
            steps.append(RawPlanNode(f"{kind.value.upper()} {node.info.get('table')}", {}))
            return steps
        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            return [RawPlanNode(f"{kind.value.upper()}", {})]

        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name != "text":
            raise DialectError(self.name, f"unknown format {format_name!r}")
        lines: List[str] = []
        # prefixes[d]: what precedes the connector of a step at depth d.
        prefixes = [""]
        for node, depth, _, _, last, exit in walk_tree(plan.root):
            if exit:
                continue
            prefix = prefixes[depth]
            if depth == 0 and node.name == "QUERY PLAN":
                lines.append("QUERY PLAN")
                child_prefix = ""
            else:
                lines.append(f"{prefix}{'`--' if last else '|--'}{node.name}")
                child_prefix = prefix + ("   " if last else "|  ")
            del prefixes[depth + 1:]
            prefixes.append(child_prefix)
        return "\n".join(lines)
