"""Simulated SparkSQL dialect.

SparkSQL is the analytics engine of the study.  Its physical plans are
dominated by Executor-category operations (Exchange, WholeStageCodegen,
ColumnarToRow, AdaptiveSparkPlan), and aggregations are split into
partial/final pairs separated by an ``Exchange hashpartitioning`` — which is
why SparkSQL has the largest Executor operation count in Table II.  Only the
textual ``EXPLAIN`` output (``== Physical Plan ==``) and the Spark UI graph
are officially supported (Table III).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.model import walk_tree
from repro.dialects.base import RawPlan, RawPlanNode, RelationalDialect, render_dot_plan
from repro.errors import DialectError
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class SparkSQLDialect(RelationalDialect):
    """The simulated SparkSQL 3.3.2 instance."""

    name = "sparksql"
    version = "3.3.2"
    data_model = "relational"
    plan_formats = ("text", "graph")
    default_format = "text"

    #: Row-count threshold above which a broadcast join is not used.
    broadcast_threshold = 10_000

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=True,
            enable_merge_join=True,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=True,
            enable_top_n=True,
        )

    def cost_model(self) -> CostModel:
        return CostModel(seq_page_cost=0.5, parallel_tuple_cost=0.01)

    # ------------------------------------------------------------------ shaping

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        shaped = self._shape(physical, analyze)
        root = RawPlanNode("AdaptiveSparkPlan", {"isFinalPlan": not analyze}, [shaped])
        return RawPlan(root=root, properties={})

    def _props(self, node: PhysicalNode, analyze: bool) -> Dict[str, Any]:
        properties: Dict[str, Any] = {"rowCount": int(max(node.estimated_rows, 1))}
        if analyze and node.runtime.executed:
            properties["numOutputRows"] = node.runtime.actual_rows
            properties["estimateFactor"] = round(
                node.runtime.actual_rows / max(node.estimated_rows, 1.0), 2
            )
            bound = node.info.get("size_bound")
            if bound is not None:
                properties["sizeBound"] = int(bound)
        return properties

    def _shape(self, node: PhysicalNode, analyze: bool) -> RawPlanNode:
        kind = node.kind
        children = [self._shape(child, analyze) for child in node.children]
        properties = self._props(node, analyze)

        if kind is OpKind.SEQ_SCAN:
            scan = RawPlanNode(f"Scan ExistingRDD {node.info.get('table')}", properties)
            scan.properties["table"] = node.info.get("table")
            columnar = RawPlanNode("ColumnarToRow", dict(properties), [scan])
            if node.info.get("filter") is not None:
                filter_node = RawPlanNode(
                    f"Filter ({print_expression(node.info['filter'])})",
                    dict(properties),
                    [columnar],
                )
                filter_node.properties["condition"] = print_expression(node.info["filter"])
                return filter_node
            return columnar
        if kind in (OpKind.INDEX_SCAN, OpKind.INDEX_ONLY_SCAN):
            # Spark has no indexes; an index access degenerates into a
            # filtered scan with pushed-down predicates.
            scan = RawPlanNode(f"Scan ExistingRDD {node.info.get('table')}", properties)
            scan.properties["table"] = node.info.get("table")
            pushed = node.info.get("index_condition")
            if pushed is not None:
                scan.properties["PushedFilters"] = print_expression(pushed)
            columnar = RawPlanNode("ColumnarToRow", dict(properties), [scan])
            residual = node.info.get("filter")
            if residual is not None:
                return RawPlanNode(
                    f"Filter ({print_expression(residual)})",
                    dict(properties),
                    [columnar],
                )
            return columnar
        if kind is OpKind.SUBQUERY_SCAN:
            return RawPlanNode("Subquery", properties, children)
        if kind in (OpKind.VALUES, OpKind.RESULT):
            return RawPlanNode("LocalTableScan", properties, children)

        if kind is OpKind.HASH_JOIN:
            small_side = min(child.estimated_rows for child in node.children)
            condition = (
                print_expression(node.info["condition"])
                if node.info.get("condition") is not None
                else ""
            )
            join_type = node.info.get("join_type", "Inner").title()
            if small_side <= self.broadcast_threshold:
                exchange = RawPlanNode("BroadcastExchange", {}, [children[1]])
                return RawPlanNode(
                    f"BroadcastHashJoin [{condition}] {join_type}",
                    properties,
                    [children[0], exchange],
                )
            left_exchange = RawPlanNode("Exchange hashpartitioning", {}, [children[0]])
            right_exchange = RawPlanNode("Exchange hashpartitioning", {}, [children[1]])
            return RawPlanNode(
                f"SortMergeJoin [{condition}] {join_type}",
                properties,
                [left_exchange, right_exchange],
            )
        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            # Spark broadcasts the (typically small) subquery side and marks
            # the join type LeftSemi / LeftAnti.
            join_type = "LeftSemi" if kind is OpKind.SEMI_JOIN else "LeftAnti"
            probe = node.info.get("probe")
            condition = (
                f"{print_expression(probe)} = {node.info.get('inner_column')}"
                if probe is not None
                else ""
            )
            exchange = RawPlanNode("BroadcastExchange", {}, [children[1]])
            return RawPlanNode(
                f"BroadcastHashJoin [{condition}] {join_type}",
                properties,
                [children[0], exchange],
            )
        if kind is OpKind.MERGE_JOIN:
            condition = (
                print_expression(node.info["condition"])
                if node.info.get("condition") is not None
                else ""
            )
            return RawPlanNode(
                f"SortMergeJoin [{condition}] Inner", properties, children
            )
        if kind is OpKind.NESTED_LOOP_JOIN:
            return RawPlanNode("BroadcastNestedLoopJoin BuildRight", properties, children)

        if kind in (OpKind.HASH_AGGREGATE, OpKind.SORT_AGGREGATE):
            group_keys = node.info.get("group_keys", [])
            aggregates = node.info.get("aggregates", [])
            keys_text = ", ".join(print_expression(key) for key in group_keys)
            functions_text = ", ".join(print_expression(agg) for agg in aggregates)
            partial = RawPlanNode(
                f"HashAggregate(keys=[{keys_text}], functions=[partial_{functions_text}])",
                dict(properties),
                children,
            )
            exchange = RawPlanNode(
                f"Exchange hashpartitioning({keys_text or 'single'}, 200)", {}, [partial]
            )
            final = RawPlanNode(
                f"HashAggregate(keys=[{keys_text}], functions=[{functions_text}])",
                properties,
                [exchange],
            )
            final.properties["keys"] = keys_text
            final.properties["functions"] = functions_text
            return final

        if kind is OpKind.FILTER:
            raw = RawPlanNode(
                f"Filter ({print_expression(node.info['predicate'])})"
                if node.info.get("predicate") is not None
                else "Filter",
                properties,
                children,
            )
            for subplan in node.attached_plans():
                raw.children.append(RawPlanNode("Subquery", {}, [self._shape(subplan, analyze)]))
            return raw
        if kind is OpKind.PROJECT:
            items = node.info.get("items", [])
            names = ", ".join(name for _, name in items)
            return RawPlanNode(f"Project [{names}]", properties, children)
        if kind is OpKind.DISTINCT:
            exchange = RawPlanNode("Exchange hashpartitioning", {}, children)
            return RawPlanNode("HashAggregate(keys=[all], functions=[])", properties, [exchange])
        if kind in (OpKind.SORT, OpKind.TOP_N):
            keys = node.info.get("sort_keys", [])
            keys_text = ", ".join(
                print_expression(expr) + (" DESC" if desc else " ASC") for expr, desc in keys
            )
            if kind is OpKind.TOP_N:
                return RawPlanNode(
                    f"TakeOrderedAndProject(limit=?, orderBy=[{keys_text}])",
                    properties,
                    children,
                )
            exchange = RawPlanNode("Exchange rangepartitioning", {}, children)
            return RawPlanNode(f"Sort [{keys_text}], true, 0", properties, [exchange])
        if kind is OpKind.LIMIT:
            return RawPlanNode("CollectLimit", properties, children)
        if kind is OpKind.APPEND:
            return RawPlanNode("Union", properties, children)
        if kind is OpKind.INTERSECT:
            return RawPlanNode("Intersect", properties, children)
        if kind is OpKind.EXCEPT:
            return RawPlanNode("Except", properties, children)
        if kind in (OpKind.MATERIALIZE, OpKind.GATHER, OpKind.HASH_BUILD):
            return RawPlanNode("Exchange SinglePartition", properties, children)
        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            return RawPlanNode(
                f"Execute {kind.value}Command {node.info.get('table')}", properties, children
            )
        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            return RawPlanNode("Execute CreateTableCommand", properties, children)
        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name == "text":
            return self._serialize_text(plan)
        if format_name == "graph":
            return render_dot_plan(plan, "spark_plan", ["node [shape=box]"], upward=True)
        raise DialectError(self.name, f"unknown format {format_name!r}")

    def _serialize_text(self, plan: RawPlan) -> str:
        lines = ["== Physical Plan =="]
        for node, depth, node_id, _, _, exit in walk_tree(plan.root):
            if exit:
                continue
            indent = "   " * depth
            prefix = "+- " if depth > 0 else ""
            stage = f"*({node_id}) " if not node.name.startswith(("Exchange", "Adaptive")) else ""
            lines.append(f"{indent}{prefix}{stage}{node.name}")
        return "\n".join(lines)
