"""Converter for SQL Server showplan output (XML, text, and tabular formats)."""

from __future__ import annotations

import re
from xml.etree import ElementTree

from repro.converters.base import (
    IndentedTree,
    PlanConverter,
    document_tree,
    read_ascii_table,
    register_converter,
)
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError

_TEXT_LINE = re.compile(r"^(?P<indent>\s*)(?:\|--)?(?P<name>[A-Za-z ]+)(?:\((?P<details>.*)\))?\s*$")


@register_converter
class SQLServerConverter(PlanConverter):
    """Parses SQL Server SHOWPLAN XML and SHOWPLAN_TEXT-style output."""

    dbms = "sqlserver"
    aliases = ("mssql", "sql server")
    formats = ("xml", "text", "table")

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        if format == "xml":
            return self._parse_xml(serialized)
        if format == "table":
            return self._parse_table(serialized)
        return self._parse_text(serialized)

    # ------------------------------------------------------------------ XML

    def _parse_xml(self, serialized: str) -> UnifiedPlan:
        try:
            root = ElementTree.fromstring(serialized)
        except ElementTree.ParseError as exc:
            raise ConversionError(self.dbms, f"invalid showplan XML: {exc}") from exc
        # The first RelOp in document order is the outermost one.
        top = next((element for element in root.iter() if _is_relop(element)), None)
        if top is None:
            raise ConversionError(self.dbms, "no RelOp elements found")
        plan = UnifiedPlan()
        plan.root = document_tree(
            top,
            self._node_from_element,
            lambda element: [child for child in element if _is_relop(child)],
        )
        return plan

    def _node_from_element(self, element) -> PlanNode:
        node = self.make_node(element.get("PhysicalOp", "Unknown"))
        for key, value in element.attrib.items():
            if key == "PhysicalOp":
                continue
            node.properties.append(self.property(key, value))
        return node

    # ------------------------------------------------------------------ text

    def _parse_text(self, serialized: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        tree = IndentedTree()
        for raw_line in serialized.splitlines():
            if not raw_line.strip():
                continue
            stripped = raw_line.lstrip()
            depth = len(raw_line) - len(stripped)
            name = stripped[3:] if stripped.startswith("|--") else stripped
            operator = name.split("(")[0].strip()
            details = name[len(operator) :].strip().strip("()")
            node = self.make_node(operator)
            if details:
                node.properties.append(self.property("Details", details))
            tree.add(depth, node)
        plan.root = tree.root
        if plan.root is None:
            raise ConversionError(self.dbms, "no plan found in showplan text")
        return plan

    # ------------------------------------------------------------------ table

    def _parse_table(self, serialized: str) -> UnifiedPlan:
        nodes = {}
        plan = UnifiedPlan()
        for row in read_ascii_table(serialized):
            node = self.make_node(row.get("PhysicalOp", "Unknown"))
            for key in ("LogicalOp", "EstimateRows", "TotalSubtreeCost"):
                if row.get(key):
                    node.properties.append(self.property(key, row[key]))
            node_id = row.get("NodeId", "")
            parent_id = row.get("Parent", "")
            nodes[node_id] = node
            if parent_id and parent_id in nodes:
                nodes[parent_id].children.append(node)
            elif plan.root is None:
                plan.root = node
        if plan.root is None:
            raise ConversionError(self.dbms, "no plan rows parsed")
        return plan


def _is_relop(element) -> bool:
    return element.tag.split("}")[-1] == "RelOp"
