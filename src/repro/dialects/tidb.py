"""Simulated TiDB dialect.

TiDB is the distributed relational DBMS of the study.  Its plans differ from
single-node DBMSs in two ways the paper highlights:

* operators carry auto-generated numeric suffixes (``TableFullScan_5``) that
  are unstable across runs — the original QPG TiDB parser failed to strip
  them, which is the implementation bug the paper reports;
* scans are wrapped in *reader* operators that collect data from storage
  nodes (``TableReader``/``IndexReader``/``IndexLookUp``), and distributed
  exchange operators appear — these map to the Executor category.

Serialized formats: the classic tabular ``EXPLAIN`` (``id`` / ``estRows`` /
``task`` / ``access object`` / ``operator info``), text (tree drawing only),
and JSON.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.formats.json_emit import dumps_indented
from repro.core.formats.table_format import ascii_table
from repro.core.model import walk_tree
from repro.dialects.base import (
    EngineConfig,
    RawPlan,
    RawPlanNode,
    RelationalDialect,
    format_number,
    plan_document,
)
from repro.errors import DialectError
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class TiDBDialect(RelationalDialect):
    """The simulated TiDB 6.5.1 instance."""

    name = "tidb"
    version = "6.5.1"
    data_model = "relational"
    plan_formats = ("table", "text", "json")
    default_format = "table"

    def __init__(self, config: EngineConfig = EngineConfig()) -> None:
        super().__init__(config)
        self._identifier_counter = self.identifier_seed

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=True,
            enable_merge_join=True,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=True,
            enable_top_n=True,
            # TiDB favours index paths because row lookups are distributed.
            index_selectivity_threshold=0.45,
        )

    def cost_model(self) -> CostModel:
        return CostModel(random_page_cost=1.5, parallel_tuple_cost=0.05)

    # ------------------------------------------------------------------ shaping

    def _next_id(self) -> int:
        self._identifier_counter += 1
        return self._identifier_counter

    def _label(self, name: str) -> str:
        return f"{name}_{self._next_id()}"

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        root = self._shape(physical, analyze, task="root")
        return RawPlan(root=root, properties={})

    def _props(self, node: PhysicalNode, analyze: bool, task: str) -> Dict[str, Any]:
        properties: Dict[str, Any] = {
            "estRows": round(max(node.estimated_rows, 1.0), 2),
            "task": task,
            "estCost": round(node.cost.total, 2),
        }
        if analyze and node.runtime.executed:
            properties["actRows"] = node.runtime.actual_rows
            properties["execution info"] = f"time:{node.runtime.actual_time_ms:.3f}ms"
            properties["estFactor"] = round(
                node.runtime.actual_rows / max(node.estimated_rows, 1.0), 2
            )
            bound = node.info.get("size_bound")
            if bound is not None:
                properties["sizeBound"] = int(bound)
        return properties

    def _shape(self, node: PhysicalNode, analyze: bool, task: str) -> RawPlanNode:
        kind = node.kind

        if kind is OpKind.SEQ_SCAN:
            scan = RawPlanNode(
                self._label("TableFullScan"), self._props(node, analyze, "cop[tikv]")
            )
            scan.properties["access object"] = f"table:{node.info.get('table')}"
            scan.properties["operator info"] = "keep order:false"
            inner = scan
            if node.info.get("filter") is not None:
                selection = RawPlanNode(
                    self._label("Selection"), self._props(node, analyze, "cop[tikv]")
                )
                selection.properties["operator info"] = print_expression(node.info["filter"])
                selection.children.append(scan)
                inner = selection
            reader = RawPlanNode(self._label("TableReader"), self._props(node, analyze, task))
            reader.properties["operator info"] = "data:" + inner.name
            reader.children.append(inner)
            return reader

        if kind is OpKind.INDEX_ONLY_SCAN:
            index_scan = RawPlanNode(
                self._label("IndexRangeScan"), self._props(node, analyze, "cop[tikv]")
            )
            index_scan.properties["access object"] = (
                f"table:{node.info.get('table')}, index:{node.info.get('index')}"
            )
            if node.info.get("index_condition") is not None:
                index_scan.properties["operator info"] = print_expression(
                    node.info["index_condition"]
                )
            reader = RawPlanNode(self._label("IndexReader"), self._props(node, analyze, task))
            reader.properties["operator info"] = "index:" + index_scan.name
            reader.children.append(index_scan)
            return reader

        if kind is OpKind.INDEX_SCAN:
            lookup = RawPlanNode(self._label("IndexLookUp"), self._props(node, analyze, task))
            index_scan = RawPlanNode(
                self._label("IndexRangeScan"), self._props(node, analyze, "cop[tikv]")
            )
            index_scan.properties["access object"] = (
                f"table:{node.info.get('table')}, index:{node.info.get('index')}"
            )
            if node.info.get("index_condition") is not None:
                index_scan.properties["operator info"] = print_expression(
                    node.info["index_condition"]
                )
            index_scan.properties["build side"] = "build"
            row_scan = RawPlanNode(
                self._label("TableRowIDScan"), self._props(node, analyze, "cop[tikv]")
            )
            row_scan.properties["access object"] = f"table:{node.info.get('table')}"
            row_scan.properties["probe side"] = "probe"
            if node.info.get("filter") is not None:
                selection = RawPlanNode(
                    self._label("Selection"), self._props(node, analyze, "cop[tikv]")
                )
                selection.properties["operator info"] = print_expression(node.info["filter"])
                selection.children.append(row_scan)
                lookup.children = [index_scan, selection]
            else:
                lookup.children = [index_scan, row_scan]
            return lookup

        children = [self._shape(child, analyze, "root") for child in node.children]
        properties = self._props(node, analyze, task)

        if kind is OpKind.SUBQUERY_SCAN:
            raw = RawPlanNode(self._label("Projection"), properties, children)
            raw.properties["operator info"] = f"derived:{node.info.get('alias')}"
            return raw
        if kind in (OpKind.VALUES, OpKind.RESULT):
            return RawPlanNode(self._label("TableDual"), properties, children)

        if kind is OpKind.HASH_JOIN:
            raw = RawPlanNode(self._label("HashJoin"), properties, children)
            raw.properties["operator info"] = (
                f"{node.info.get('join_type', 'inner').lower()} join, equal:"
                + (print_expression(node.info["condition"]) if node.info.get("condition") else "")
            )
            return raw
        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            # TiDB keeps the HashJoin operator and marks the semantics in
            # the operator info, as the real system does.
            raw = RawPlanNode(self._label("HashJoin"), properties, children)
            semantics = "semi join" if kind is OpKind.SEMI_JOIN else "anti semi join"
            probe = node.info.get("probe")
            equal = (
                f"{print_expression(probe)} = {node.info.get('inner_column')}"
                if probe is not None
                else ""
            )
            raw.properties["operator info"] = f"{semantics}, equal:{equal}"
            return raw
        if kind is OpKind.MERGE_JOIN:
            raw = RawPlanNode(self._label("MergeJoin"), properties, children)
            if node.info.get("condition") is not None:
                raw.properties["operator info"] = print_expression(node.info["condition"])
            return raw
        if kind is OpKind.NESTED_LOOP_JOIN:
            raw = RawPlanNode(self._label("IndexHashJoin"), properties, children)
            if node.info.get("condition") is not None:
                raw.properties["operator info"] = print_expression(node.info["condition"])
            return raw

        if kind in (OpKind.HASH_AGGREGATE, OpKind.SORT_AGGREGATE):
            label = "HashAgg" if kind is OpKind.HASH_AGGREGATE else "StreamAgg"
            raw = RawPlanNode(self._label(label), properties, children)
            group_keys = node.info.get("group_keys", [])
            aggregates = node.info.get("aggregates", [])
            info_parts = []
            if group_keys:
                info_parts.append(
                    "group by:" + ", ".join(print_expression(key) for key in group_keys)
                )
            if aggregates:
                info_parts.append(
                    "funcs:" + ", ".join(print_expression(agg) for agg in aggregates)
                )
            if node.info.get("deduplicate"):
                info_parts.append("deduplicate")
            raw.properties["operator info"] = "; ".join(info_parts)
            return raw

        if kind is OpKind.FILTER:
            raw = RawPlanNode(self._label("Selection"), properties, children)
            if node.info.get("predicate") is not None:
                raw.properties["operator info"] = print_expression(node.info["predicate"])
            for subplan in node.attached_plans():
                raw.children.append(self._shape(subplan, analyze, "root"))
            return raw

        if kind is OpKind.PROJECT:
            raw = RawPlanNode(self._label("Projection"), properties, children)
            items = node.info.get("items", [])
            raw.properties["operator info"] = ", ".join(name for _, name in items)
            return raw

        if kind is OpKind.DISTINCT:
            raw = RawPlanNode(self._label("HashAgg"), properties, children)
            raw.properties["operator info"] = "distinct"
            return raw

        if kind is OpKind.SORT:
            raw = RawPlanNode(self._label("Sort"), properties, children)
            keys = node.info.get("sort_keys", [])
            raw.properties["operator info"] = ", ".join(
                print_expression(expr) + (":desc" if desc else "") for expr, desc in keys
            )
            return raw
        if kind is OpKind.TOP_N:
            raw = RawPlanNode(self._label("TopN"), properties, children)
            keys = node.info.get("sort_keys", [])
            raw.properties["operator info"] = ", ".join(
                print_expression(expr) + (":desc" if desc else "") for expr, desc in keys
            )
            return raw
        if kind is OpKind.LIMIT:
            raw = RawPlanNode(self._label("Limit"), properties, children)
            if node.info.get("limit") is not None:
                raw.properties["operator info"] = (
                    "offset:0, count:" + print_expression(node.info["limit"])
                )
            return raw

        if kind is OpKind.APPEND:
            return RawPlanNode(self._label("Union"), properties, children)
        if kind is OpKind.INTERSECT:
            return RawPlanNode(self._label("Intersect"), properties, children)
        if kind is OpKind.EXCEPT:
            return RawPlanNode(self._label("Except"), properties, children)
        if kind in (OpKind.MATERIALIZE, OpKind.GATHER, OpKind.HASH_BUILD):
            return RawPlanNode(self._label("Projection"), properties, children)

        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            raw = RawPlanNode(self._label(kind.value), properties, children)
            raw.properties["access object"] = f"table:{node.info.get('table')}"
            return raw
        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            return RawPlanNode(self._label("DDL"), properties, children)

        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name == "table":
            return self._serialize_table(plan)
        if format_name == "text":
            return self._serialize_text(plan)
        if format_name == "json":
            return self._serialize_json(plan)
        raise DialectError(self.name, f"unknown format {format_name!r}")

    def _tree_lines(self, plan: RawPlan) -> List[tuple]:
        """``(└─ / ├─ tree label, node)`` per node, in pre-order."""
        return [
            (
                ("  " * (depth - 1) + ("└─" if last else "├─") if depth else "") + node.name,
                node,
            )
            for node, depth, _, _, last, exit in walk_tree(plan.root)
            if not exit
        ]

    def _serialize_table(self, plan: RawPlan) -> str:
        rows = [
            [
                label,
                node.properties.get("estRows", ""),
                node.properties.get("task", "root"),
                node.properties.get("access object", ""),
                node.properties.get("operator info", ""),
            ]
            for label, node in self._tree_lines(plan)
        ]
        columns = ["id", "estRows", "task", "access object", "operator info"]
        return ascii_table(columns, rows, ())

    def _serialize_text(self, plan: RawPlan) -> str:
        return "\n".join(label for label, _ in self._tree_lines(plan))

    def _serialize_json(self, plan: RawPlan) -> str:
        document = {} if plan.root is None else plan_document(plan.root, "id", "subOperators")
        return dumps_indented([document])
