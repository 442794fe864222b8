"""Simulated PostgreSQL dialect.

Reproduces the structure of PostgreSQL 14 query plans as used throughout the
paper (Listing 1, Figure 2, Listing 4): ``Seq Scan`` / ``Index Scan`` leaves
with ``Filter`` and ``Index Cond`` properties, ``Hash Join`` with a separate
``Hash`` build child, ``HashAggregate`` / ``GroupAggregate``, ``Append`` for
set operations, ``Gather`` for parallel scans, and ``cost= rows= width=``
annotations.  Serialized formats: text, JSON, XML, YAML (Table III), plus a
DOT rendering standing in for the pgAdmin graph view.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.formats.json_emit import dumps_indented
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
from repro.optimizer.physical import INIT_PLANS, SUBPLANS, OpKind, PhysicalNode
from repro.optimizer.planner import PlannerOptions
from repro.sqlparser.printer import print_expression


class PostgreSQLDialect(RelationalDialect):
    """The simulated PostgreSQL 14.7 instance."""

    name = "postgresql"
    version = "14.7"
    data_model = "relational"
    plan_formats = ("text", "table", "json", "xml", "yaml", "graph")
    default_format = "text"

    #: Tables with at least this many rows get a parallel plan (Gather).
    parallel_threshold = 50_000

    def planner_options(self) -> PlannerOptions:
        return PlannerOptions(
            enable_hash_join=True,
            enable_merge_join=True,
            enable_nested_loop_join=True,
            prefer_hash_aggregate=True,
        )

    def cost_model(self) -> CostModel:
        return CostModel()

    # ------------------------------------------------------------------ shaping

    def shape_plan(self, physical: PhysicalNode, analyze: bool = False) -> RawPlan:
        root = self._shape(physical, analyze)
        plan = RawPlan(root=root)
        plan.properties["Planning Time"] = round(0.05 + 0.01 * physical.size(), 3)
        if analyze:
            plan.properties["Execution Time"] = round(
                physical.runtime.actual_time_ms, 3
            )
        return plan

    def _common_properties(self, node: PhysicalNode, analyze: bool) -> Dict[str, Any]:
        properties: Dict[str, Any] = {
            "Startup Cost": round(node.cost.startup, 2),
            "Total Cost": round(node.cost.total, 2),
            "Plan Rows": int(max(node.estimated_rows, 1)),
            "Plan Width": node.width,
        }
        if analyze and node.runtime.executed:
            properties["Actual Rows"] = node.runtime.actual_rows
            properties["Actual Total Time"] = round(node.runtime.actual_time_ms, 3)
            properties["Actual Loops"] = max(node.runtime.loops, 1)
            # Estimated-vs-actual misestimation factor plus the proven
            # intermediate-size bound (repro.optimizer.bounds): an actual
            # row count above the bound is an engine bug, never a
            # misestimate — the campaign's "Bound" oracle reports it.
            properties["Estimate Factor"] = round(
                node.runtime.actual_rows / max(node.estimated_rows, 1.0), 2
            )
            bound = node.info.get("size_bound")
            if bound is not None:
                properties["Size Bound"] = int(bound)
        return properties

    def _shape(self, node: PhysicalNode, analyze: bool) -> RawPlanNode:
        kind = node.kind
        children = [self._shape(child, analyze) for child in node.children]
        properties = self._common_properties(node, analyze)

        if kind is OpKind.SEQ_SCAN:
            raw = RawPlanNode("Seq Scan", properties)
            raw.properties["Relation Name"] = node.info.get("table")
            raw.properties["Alias"] = node.info.get("alias")
            if node.info.get("filter") is not None:
                raw.properties["Filter"] = print_expression(node.info["filter"])
            if node.info.get("table_rows", 0) >= self.parallel_threshold:
                raw.name = "Parallel Seq Scan"
                gather = RawPlanNode("Gather", dict(properties))
                gather.properties["Workers Planned"] = 2
                gather.children.append(raw)
                return gather
            return raw

        if kind in (OpKind.INDEX_SCAN, OpKind.INDEX_ONLY_SCAN):
            label = "Index Scan" if kind is OpKind.INDEX_SCAN else "Index Only Scan"
            raw = RawPlanNode(label, properties)
            raw.properties["Relation Name"] = node.info.get("table")
            raw.properties["Alias"] = node.info.get("alias")
            raw.properties["Index Name"] = node.info.get("index")
            if node.info.get("index_condition") is not None:
                raw.properties["Index Cond"] = print_expression(node.info["index_condition"])
            if node.info.get("filter") is not None:
                raw.properties["Filter"] = print_expression(node.info["filter"])
            return raw

        if kind is OpKind.SUBQUERY_SCAN:
            raw = RawPlanNode("Subquery Scan", properties, children)
            raw.properties["Alias"] = node.info.get("alias")
            if node.info.get("filter") is not None:
                raw.properties["Filter"] = print_expression(node.info["filter"])
            return raw

        if kind is OpKind.VALUES:
            return RawPlanNode("Values Scan", properties, children)

        if kind is OpKind.RESULT:
            return RawPlanNode("Result", properties, children)

        if kind is OpKind.HASH_JOIN:
            raw = RawPlanNode("Hash Join", properties)
            raw.properties["Join Type"] = node.info.get("join_type", "Inner").title()
            if node.info.get("condition") is not None:
                raw.properties["Hash Cond"] = print_expression(node.info["condition"])
            raw.children.append(children[0])
            hash_node = RawPlanNode(
                "Hash", self._common_properties(node.children[1], analyze)
            )
            hash_node.children.append(children[1])
            raw.children.append(hash_node)
            return raw

        if kind in (OpKind.SEMI_JOIN, OpKind.ANTI_JOIN):
            # PostgreSQL displays decorrelated IN/EXISTS as semi/anti hash
            # joins, with the inner side behind a Hash build, exactly like a
            # plain hash join.
            label = "Hash Semi Join" if kind is OpKind.SEMI_JOIN else "Hash Anti Join"
            raw = RawPlanNode(label, properties)
            raw.properties["Join Type"] = node.info.get("join_type", "Semi")
            if node.info.get("probe") is not None:
                raw.properties["Hash Cond"] = (
                    f"{print_expression(node.info['probe'])} = "
                    f"{node.info.get('inner_column')}"
                )
            raw.children.append(children[0])
            hash_node = RawPlanNode(
                "Hash", self._common_properties(node.children[1], analyze)
            )
            hash_node.children.append(children[1])
            raw.children.append(hash_node)
            return raw

        if kind is OpKind.MERGE_JOIN:
            raw = RawPlanNode("Merge Join", properties)
            raw.properties["Join Type"] = node.info.get("join_type", "Inner").title()
            if node.info.get("condition") is not None:
                raw.properties["Merge Cond"] = print_expression(node.info["condition"])
            for child, physical_child in zip(children, node.children):
                sort = RawPlanNode("Sort", dict(self._common_properties(physical_child, analyze)))
                if node.info.get("condition") is not None:
                    sort.properties["Sort Key"] = print_expression(node.info["condition"])
                sort.children.append(child)
                raw.children.append(sort)
            return raw

        if kind is OpKind.NESTED_LOOP_JOIN:
            raw = RawPlanNode("Nested Loop", properties, children)
            raw.properties["Join Type"] = node.info.get("join_type", "Inner").title()
            if node.info.get("condition") is not None:
                raw.properties["Join Filter"] = print_expression(node.info["condition"])
            return raw

        if kind is OpKind.HASH_AGGREGATE:
            raw = RawPlanNode("HashAggregate", properties, children)
            group_keys = node.info.get("group_keys", [])
            if group_keys:
                raw.properties["Group Key"] = ", ".join(
                    print_expression(key) for key in group_keys
                )
            return raw

        if kind is OpKind.SORT_AGGREGATE:
            group_keys = node.info.get("group_keys", [])
            label = "GroupAggregate" if group_keys else "Aggregate"
            raw = RawPlanNode(label, properties, children)
            if group_keys:
                raw.properties["Group Key"] = ", ".join(
                    print_expression(key) for key in group_keys
                )
            return raw

        if kind is OpKind.FILTER:
            # PostgreSQL attaches residual predicates to the node below.
            predicate = node.info.get("predicate")
            target = children[0]
            if predicate is not None:
                existing = target.properties.get("Filter")
                printed = print_expression(predicate)
                target.properties["Filter"] = (
                    f"{existing} AND {printed}" if existing else printed
                )
            self._attach_subquery_plans(node, target, analyze)
            return target

        if kind is OpKind.PROJECT:
            # PostgreSQL has no explicit projection operator; the target list
            # lives on the node below.
            target = children[0]
            items = node.info.get("items", [])
            output = [name for _, name in items]
            if output and "Output" not in target.properties:
                target.properties["Output"] = ", ".join(output)
            self._attach_subquery_plans(node, target, analyze)
            return target

        if kind is OpKind.DISTINCT:
            return RawPlanNode("Unique", properties, children)

        if kind in (OpKind.SORT, OpKind.TOP_N):
            raw = RawPlanNode("Sort", properties, children)
            keys = node.info.get("sort_keys", [])
            if keys:
                raw.properties["Sort Key"] = ", ".join(
                    print_expression(expression) + (" DESC" if descending else "")
                    for expression, descending in keys
                )
            if kind is OpKind.TOP_N:
                limit = RawPlanNode("Limit", dict(properties))
                limit.children.append(raw)
                return limit
            return raw

        if kind is OpKind.LIMIT:
            return RawPlanNode("Limit", properties, children)

        if kind is OpKind.APPEND:
            return RawPlanNode("Append", properties, children)

        if kind is OpKind.INTERSECT:
            raw = RawPlanNode("SetOp Intersect", properties, children)
            return raw
        if kind is OpKind.EXCEPT:
            raw = RawPlanNode("SetOp Except", properties, children)
            return raw

        if kind is OpKind.MATERIALIZE:
            return RawPlanNode("Materialize", properties, children)
        if kind is OpKind.GATHER:
            return RawPlanNode("Gather", properties, children)

        if kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE):
            raw = RawPlanNode("ModifyTable", properties, children)
            raw.properties["Operation"] = kind.value
            raw.properties["Relation Name"] = node.info.get("table")
            return raw

        if kind in (OpKind.CREATE_TABLE, OpKind.CREATE_INDEX, OpKind.DROP_TABLE):
            raw = RawPlanNode("Utility", properties, children)
            raw.properties["Statement"] = kind.value
            return raw

        raise DialectError(self.name, f"cannot shape operator {kind.value}")

    def _attach_subquery_plans(
        self, node: PhysicalNode, target: RawPlanNode, analyze: bool
    ) -> None:
        """Hang *node*'s subquery plans on *target* the way PostgreSQL lists
        them: ``InitPlan`` children (run once, result kept in a parameter)
        before the operator's inputs, ``SubPlan`` children (re-run per row)
        after them."""
        init_plans = [
            self._shape(plan, analyze) for plan in node.info.get(INIT_PLANS, ())
        ]
        for raw in init_plans:
            raw.properties["Parent Relationship"] = "InitPlan"
        target.children[:0] = init_plans
        for plan in node.info.get(SUBPLANS, ()):
            raw = self._shape(plan, analyze)
            raw.properties["Parent Relationship"] = "SubPlan"
            target.children.append(raw)

    # ------------------------------------------------------------------ serialization

    def serialize_plan(self, plan: RawPlan, format_name: str) -> str:
        if format_name == "text":
            return self._serialize_text(plan)
        if format_name == "table":
            return self._serialize_table(plan)
        if format_name == "json":
            return self._serialize_json(plan)
        if format_name == "xml":
            return self._serialize_xml(plan)
        if format_name == "yaml":
            return self._serialize_yaml(plan)
        if format_name == "graph":
            return render_dot_plan(plan, "plan", ["node [shape=box]"])
        raise DialectError(self.name, f"unknown format {format_name!r}")

    _HEADLINE_KEYS = (
        "Startup Cost",
        "Total Cost",
        "Plan Rows",
        "Plan Width",
        "Relation Name",
        "Alias",
        "Index Name",
        "Join Type",
        "Actual Rows",
        "Actual Total Time",
        "Actual Loops",
        "Operation",
        "Statement",
        "Output",
        "Parent Relationship",
    )

    def _node_headline(self, node: RawPlanNode) -> str:
        name = node.name
        relation = node.properties.get("Relation Name")
        alias = node.properties.get("Alias")
        index_name = node.properties.get("Index Name")
        if index_name and relation:
            name = f"{name} using {index_name} on {relation}"
        elif relation:
            name = f"{name} on {relation}"
            if alias and alias != relation:
                name = f"{name} {alias}"
        cost = (
            f"cost={format_number(node.properties.get('Startup Cost', 0.0))}"
            f"..{format_number(node.properties.get('Total Cost', 0.0))}"
        )
        rows = f"rows={node.properties.get('Plan Rows', 0)}"
        width = f"width={node.properties.get('Plan Width', 0)}"
        headline = f"{name}  ({cost} {rows} {width}"
        if "Actual Rows" in node.properties:
            headline += (
                f") (actual time={format_number(node.properties.get('Actual Total Time', 0.0), 3)}"
                f" rows={node.properties['Actual Rows']} loops={node.properties.get('Actual Loops', 1)}"
            )
        return headline + ")"

    def _node_property_lines(self, node: RawPlanNode) -> List[str]:
        lines = []
        for key, value in node.properties.items():
            if key in self._HEADLINE_KEYS:
                continue
            lines.append(f"{key}: {value}")
        return lines

    def _serialize_text(self, plan: RawPlan) -> str:
        lines: List[str] = []
        subquery_plans = 0
        # shifts[node_id]: the levels ``InitPlan`` / ``SubPlan`` labels at
        # and above the node push its lines down (index 0: above the root).
        shifts = [0]
        for node, depth, _, parent_id, _, exit in walk_tree(plan.root):
            if exit:
                continue
            shift = shifts[parent_id or 0]
            depth += shift
            relationship = node.properties.get("Parent Relationship")
            if relationship is not None:
                # ``InitPlan 1`` / ``SubPlan 2``: a label line of its own,
                # with the subquery's plan one level below it.
                subquery_plans += 1
                lines.append(f"{'  ' * depth}{relationship} {subquery_plans}")
                depth += 1
                shift += 1
            shifts.append(shift)
            indent = "  " * depth
            arrow = "->  " if depth > 0 else ""
            lines.append(f"{indent}{arrow}{self._node_headline(node)}")
            for extra in self._node_property_lines(node):
                lines.append(f"{indent}{'      ' if depth > 0 else '  '}{extra}")
        for key, value in plan.properties.items():
            lines.append(f"{key}: {value} ms")
        return "\n".join(lines)

    def _serialize_table(self, plan: RawPlan) -> str:
        """A psql-style single-column ``QUERY PLAN`` table."""
        body = self._serialize_text(plan).splitlines()
        width = max([len("QUERY PLAN")] + [len(line) for line in body])
        lines = [" QUERY PLAN".ljust(width + 2), "-" * (width + 2)]
        lines.extend(" " + line.ljust(width + 1) for line in body)
        lines.append(f"({len(body)} rows)")
        return "\n".join(lines)

    def _serialize_json(self, plan: RawPlan) -> str:
        document: Dict[str, Any] = {}
        if plan.root is not None:
            document["Plan"] = plan_document(plan.root, "Node Type", "Plans")
        document.update(plan.properties)
        return dumps_indented([document])

    def _serialize_xml(self, plan: RawPlan) -> str:
        from xml.etree import ElementTree

        root = ElementTree.Element(
            "explain", xmlns="http://www.postgresql.org/2009/explain"
        )
        query = ElementTree.SubElement(root, "Query")
        # containers[node_id]: the element a node's children go in.
        containers = [query]
        for node, _, _, parent_id, _, exit in walk_tree(plan.root):
            if exit:
                continue
            element = ElementTree.SubElement(containers[parent_id or 0], "Plan")
            ElementTree.SubElement(element, "Node-Type").text = node.name
            for key, value in node.properties.items():
                child = ElementTree.SubElement(element, key.replace(" ", "-"))
                child.text = str(value)
            containers.append(
                ElementTree.SubElement(element, "Plans") if node.children else None
            )
        for key, value in plan.properties.items():
            extra = ElementTree.SubElement(query, key.replace(" ", "-"))
            extra.text = str(value)
        return ElementTree.tostring(root, encoding="unicode")

    def _serialize_yaml(self, plan: RawPlan) -> str:
        lines = ["- Plan:"]
        for node, depth, _, _, _, exit in walk_tree(plan.root):
            if exit:
                continue
            pad = "  " * (depth + 1)
            lines.append(f"{pad}- Node Type: \"{node.name}\"")
            for key, value in node.properties.items():
                rendered = f'"{value}"' if isinstance(value, str) else value
                lines.append(f"{pad}  {key}: {rendered}")
            if node.children:
                lines.append(f"{pad}  Plans:")
        for key, value in plan.properties.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)
