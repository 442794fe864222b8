"""Simulated SQL Server dialect.

SQL Server is the commercial, closed-source DBMS of the study.  Its showplan
vocabulary differs from the open-source systems: ``Table Scan`` /
``Clustered Index Seek`` leaves, ``Hash Match`` covering both joins and
aggregation, ``Nested Loops``, ``Compute Scalar``, ``Stream Aggregate`` and
``Top``.  Serialized formats: SHOWPLAN_TEXT-style text, SHOWPLAN_XML-style
XML, a tabular SHOWPLAN_ALL-style output, and a DOT graph standing in for the
Management Studio graphical plan.
"""

from __future__ import annotations

from typing import Any, Dict
from xml.etree import ElementTree

from repro.core.formats.table_format import ascii_table
from repro.core.model import walk_tree
from repro.dialects.base import (
    RawPlan,
    RawPlanNode,
    RelationalDialect,
    render_dot_plan,
)
from repro.errors import DialectError
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class SQLServerDialect(RelationalDialect):
    """The simulated SQL Server 16.0 (2022) instance."""

    name = "sqlserver"
    version = "16.0.4015.1"
    data_model = "relational"
    plan_formats = ("text", "table", "xml", "graph")
    default_format = "text"

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=True,
            enable_merge_join=True,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=True,
        )

    def cost_model(self) -> CostModel:
        return CostModel(random_page_cost=3.0, cpu_operator_cost=0.002)

    # ------------------------------------------------------------------ shaping

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        root = self._shape(physical, analyze)
        return RawPlan(root=root, properties={"StatementType": "SELECT"})

    def _props(self, node: PhysicalNode, analyze: bool) -> Dict[str, Any]:
        properties: Dict[str, Any] = {
            "EstimateRows": round(max(node.estimated_rows, 1.0), 2),
            "EstimatedTotalSubtreeCost": round(node.cost.total / 100.0, 4),
            "AvgRowSize": node.width,
        }
        if analyze and node.runtime.executed:
            properties["ActualRows"] = node.runtime.actual_rows
            properties["ActualElapsedms"] = round(node.runtime.actual_time_ms, 3)
            properties["EstimateFactor"] = round(
                node.runtime.actual_rows / max(node.estimated_rows, 1.0), 2
            )
            bound = node.info.get("size_bound")
            if bound is not None:
                properties["SizeBound"] = int(bound)
        return properties

    def _shape(self, node: PhysicalNode, analyze: bool) -> RawPlanNode:
        kind = node.kind
        children = [self._shape(child, analyze) for child in node.children]
        properties = self._props(node, analyze)

        if kind is OpKind.SEQ_SCAN:
            raw = RawPlanNode("Table Scan", properties)
            raw.properties["Object"] = f"[{node.info.get('table')}]"
            if node.info.get("filter") is not None:
                raw.properties["Predicate"] = print_expression(node.info["filter"])
            return raw
        if kind is OpKind.INDEX_SCAN:
            raw = RawPlanNode("Index Seek", properties)
            raw.properties["Object"] = (
                f"[{node.info.get('table')}].[{node.info.get('index')}]"
            )
            if node.info.get("index_condition") is not None:
                raw.properties["SeekPredicates"] = print_expression(node.info["index_condition"])
            if node.info.get("filter") is not None:
                raw.properties["Predicate"] = print_expression(node.info["filter"])
            return raw
        if kind is OpKind.INDEX_ONLY_SCAN:
            raw = RawPlanNode("Clustered Index Seek", properties)
            raw.properties["Object"] = (
                f"[{node.info.get('table')}].[{node.info.get('index')}]"
            )
            if node.info.get("index_condition") is not None:
                raw.properties["SeekPredicates"] = print_expression(node.info["index_condition"])
            return raw
        if kind is OpKind.SUBQUERY_SCAN:
            return RawPlanNode("Table Spool", properties, children)
        if kind in (OpKind.VALUES, OpKind.RESULT):
            return RawPlanNode("Constant Scan", properties, children)

        if kind is OpKind.HASH_JOIN:
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = f"{node.info.get('join_type', 'Inner').title()} Join"
            if node.info.get("condition") is not None:
                raw.properties["HashKeysProbe"] = print_expression(node.info["condition"])
            return raw
        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = (
                "Left Semi Join" if kind is OpKind.SEMI_JOIN else "Left Anti Semi Join"
            )
            if node.info.get("probe") is not None:
                raw.properties["HashKeysProbe"] = print_expression(node.info["probe"])
            return raw
        if kind is OpKind.MERGE_JOIN:
            raw = RawPlanNode("Merge Join", properties, children)
            raw.properties["LogicalOp"] = f"{node.info.get('join_type', 'Inner').title()} Join"
            if node.info.get("condition") is not None:
                raw.properties["Residual"] = print_expression(node.info["condition"])
            return raw
        if kind is OpKind.NESTED_LOOP_JOIN:
            raw = RawPlanNode("Nested Loops", properties, children)
            raw.properties["LogicalOp"] = f"{node.info.get('join_type', 'Inner').title()} Join"
            if node.info.get("condition") is not None:
                raw.properties["Predicate"] = print_expression(node.info["condition"])
            return raw

        if kind is OpKind.HASH_AGGREGATE:
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = "Aggregate"
            group_keys = node.info.get("group_keys", [])
            if group_keys:
                raw.properties["GroupBy"] = ", ".join(print_expression(k) for k in group_keys)
            return raw
        if kind is OpKind.SORT_AGGREGATE:
            raw = RawPlanNode("Stream Aggregate", properties, children)
            group_keys = node.info.get("group_keys", [])
            if group_keys:
                raw.properties["GroupBy"] = ", ".join(print_expression(k) for k in group_keys)
            return raw

        if kind is OpKind.FILTER:
            raw = RawPlanNode("Filter", properties, children)
            if node.info.get("predicate") is not None:
                raw.properties["Predicate"] = print_expression(node.info["predicate"])
            for subplan in node.attached_plans():
                raw.children.append(self._shape(subplan, analyze))
            return raw
        if kind is OpKind.PROJECT:
            raw = RawPlanNode("Compute Scalar", properties, children)
            items = node.info.get("items", [])
            raw.properties["DefinedValues"] = ", ".join(name for _, name in items)
            return raw
        if kind is OpKind.DISTINCT:
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = "Distinct"
            return raw
        if kind is OpKind.SORT:
            raw = RawPlanNode("Sort", properties, children)
            keys = node.info.get("sort_keys", [])
            raw.properties["OrderBy"] = ", ".join(
                print_expression(expr) + (" DESC" if desc else " ASC") for expr, desc in keys
            )
            return raw
        if kind is OpKind.TOP_N:
            sort = RawPlanNode("Sort", dict(properties), children)
            keys = node.info.get("sort_keys", [])
            sort.properties["OrderBy"] = ", ".join(
                print_expression(expr) + (" DESC" if desc else " ASC") for expr, desc in keys
            )
            top = RawPlanNode("Top", properties, [sort])
            return top
        if kind is OpKind.LIMIT:
            return RawPlanNode("Top", properties, children)
        if kind is OpKind.APPEND:
            return RawPlanNode("Concatenation", properties, children)
        if kind is OpKind.INTERSECT:
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = "Left Semi Join"
            return raw
        if kind is OpKind.EXCEPT:
            raw = RawPlanNode("Hash Match", properties, children)
            raw.properties["LogicalOp"] = "Left Anti Semi Join"
            return raw
        if kind in (OpKind.MATERIALIZE, OpKind.GATHER, OpKind.HASH_BUILD):
            return RawPlanNode("Table Spool", properties, children)
        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            raw = RawPlanNode(f"{kind.value.title()}" if kind is not OpKind.INSERT else "Table Insert", properties, children)
            raw.properties["Object"] = f"[{node.info.get('table')}]"
            return raw
        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            return RawPlanNode("DDL Statement", properties, children)
        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name == "text":
            return self._serialize_text(plan)
        if format_name == "table":
            return self._serialize_table(plan)
        if format_name == "xml":
            return self._serialize_xml(plan)
        if format_name == "graph":
            return render_dot_plan(plan, "sqlserver_plan", ["node [shape=box]"])
        raise DialectError(self.name, f"unknown format {format_name!r}")

    def _headline(self, node: RawPlanNode) -> str:
        logical = node.properties.get("LogicalOp")
        details = []
        if logical:
            details.append(logical)
        for key in ("Object", "SeekPredicates", "Predicate", "GroupBy", "OrderBy"):
            if key in node.properties:
                details.append(f"{key}:({node.properties[key]})")
        suffix = ", ".join(details)
        return f"{node.name}({suffix})" if suffix else node.name

    def _serialize_text(self, plan: RawPlan) -> str:
        return "\n".join(
            f"{'  ' * depth}{'|--' if depth else ''}{self._headline(node)}"
            for node, depth, _, _, _, exit in walk_tree(plan.root)
            if not exit
        )

    def _serialize_table(self, plan: RawPlan) -> str:
        columns = ["NodeId", "Parent", "PhysicalOp", "LogicalOp", "EstimateRows", "TotalSubtreeCost"]
        rows = [
            [
                node_id,
                "" if parent_id is None else parent_id,
                node.name,
                node.properties.get("LogicalOp", node.name),
                node.properties.get("EstimateRows", ""),
                node.properties.get("EstimatedTotalSubtreeCost", ""),
            ]
            for node, _, node_id, parent_id, _, exit in walk_tree(plan.root)
            if not exit
        ]
        footer = [f"{key}: {value}" for key, value in plan.properties.items()]
        return ascii_table(columns, rows, footer)

    def _serialize_xml(self, plan: RawPlan) -> str:
        root = ElementTree.Element(
            "ShowPlanXML",
            xmlns="http://schemas.microsoft.com/sqlserver/2004/07/showplan",
            Version="1.564",
        )
        statements = ElementTree.SubElement(root, "BatchSequence")
        batch = ElementTree.SubElement(statements, "Batch")
        stmts = ElementTree.SubElement(batch, "Statements")
        simple = ElementTree.SubElement(stmts, "StmtSimple")
        # elements[node_id]: the element a node's child RelOps go in.
        elements = [ElementTree.SubElement(simple, "QueryPlan")]
        for node, _, _, parent_id, _, exit in walk_tree(plan.root):
            if not exit:
                element = ElementTree.SubElement(
                    elements[parent_id or 0], "RelOp", PhysicalOp=node.name
                )
                for key, value in node.properties.items():
                    element.set(key, str(value))
                elements.append(element)
        return ElementTree.tostring(root, encoding="unicode")
