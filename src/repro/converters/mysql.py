"""Converter for MySQL serialized query plans (JSON, tabular, and tree formats)."""

from __future__ import annotations

import json
import re
from typing import Any, Dict

from repro.converters.base import (
    IndentedTree,
    PlanConverter,
    document_tree,
    read_ascii_table,
    register_converter,
)
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError

_TREE_LINE = re.compile(
    r"^(?P<indent>\s*)->\s+(?P<name>.+?)\s*(?:\(cost=(?P<cost>[\d.]+)\s+rows=(?P<rows>\d+)\))?\s*$"
)


@register_converter
class MySQLConverter(PlanConverter):
    """Parses MySQL ``EXPLAIN`` output (FORMAT=JSON, traditional table, FORMAT=TREE)."""

    dbms = "mysql"
    aliases = ("mariadb",)
    formats = ("json", "table", "tree")

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        if format == "json":
            return self._parse_json(serialized)
        if format == "tree":
            return self._parse_tree(serialized)
        return self._parse_table(serialized)

    # ------------------------------------------------------------------ JSON

    def _parse_json(self, serialized: str) -> UnifiedPlan:
        try:
            document = json.loads(serialized)
        except json.JSONDecodeError as exc:
            raise ConversionError(self.dbms, f"invalid JSON plan: {exc}") from exc
        query_block = document.get("query_block", {})
        plan = UnifiedPlan()
        cost_info = query_block.get("cost_info", {})
        if "query_cost" in cost_info:
            plan.properties.append(self.property("query_cost", cost_info["query_cost"]))
        if "plan" in query_block:
            plan.root = document_tree(
                query_block["plan"],
                self._node_from_json,
                lambda data: data.get("nested_operations", []),
            )
        return plan

    def _node_from_json(self, data: Dict[str, Any]) -> PlanNode:
        node = self.make_node(self._normalise_name(str(data.get("operation", "Unknown"))))
        for key, value in data.items():
            if key in {"operation", "nested_operations"}:
                continue
            node.properties.append(self.property(key, value))
        return node

    # ------------------------------------------------------------------ table

    def _parse_table(self, serialized: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        rows = read_ascii_table(serialized)
        previous: PlanNode = None
        for row in rows:
            access_type = row.get("type", "")
            table = row.get("table", "")
            if not table:
                continue
            operation_name = {
                "ALL": "Table scan",
                "index": "Index scan",
                "range": "Index range scan",
                "ref": "Index lookup",
                "eq_ref": "Single row index lookup",
                "const": "Constant row",
            }.get(access_type, "Table scan")
            node = self.make_node(operation_name)
            node.properties.append(self.property("table", table))
            if row.get("key"):
                node.properties.append(self.property("key", row["key"]))
            if row.get("rows"):
                node.properties.append(self.property("rows", row["rows"]))
            if row.get("Extra"):
                node.properties.append(self.property("Extra", row["Extra"]))
            if row.get("select_type"):
                node.properties.append(self.property("select_type", row["select_type"]))
            if plan.root is None:
                plan.root = node
            else:
                previous.children.append(node)
            previous = node
        if plan.root is None:
            raise ConversionError(self.dbms, "no table rows found in EXPLAIN output")
        return plan

    # ------------------------------------------------------------------ tree

    def _parse_tree(self, serialized: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        tree = IndentedTree()
        for raw_line in serialized.splitlines():
            match = _TREE_LINE.match(raw_line)
            if not match:
                continue
            depth = len(match.group("indent"))
            node = self.make_node(self._normalise_name(match.group("name")))
            if match.group("cost"):
                node.properties.append(self.property("cost", float(match.group("cost"))))
            if match.group("rows"):
                node.properties.append(self.property("rows", int(match.group("rows"))))
            tree.add(depth, node)
        plan.root = tree.root
        if plan.root is None:
            raise ConversionError(self.dbms, "no plan found in tree output")
        return plan

    def _normalise_name(self, name: str) -> str:
        """Strip per-query details (table names, predicates) from an operator label."""
        cleaned = name.strip()
        for separator in (" on ", ": ", " using "):
            if separator in cleaned:
                cleaned = cleaned.split(separator)[0]
        return cleaned.strip()

