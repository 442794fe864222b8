"""Converter for PostgreSQL serialized query plans (text and JSON formats)."""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.converters.base import (
    IndentedTree,
    PlanConverter,
    document_tree,
    register_converter,
)
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError

_NODE_LINE = re.compile(
    r"^(?P<indent>\s*)(?:->\s+)?(?P<name>.+?)\s+\(cost=(?P<startup>[\d.]+)\.\.(?P<total>[\d.]+)"
    r"\s+rows=(?P<rows>\d+)\s+width=(?P<width>\d+)\)?"
)
_PLAN_PROPERTY_LINE = re.compile(r"^(?P<key>[A-Za-z ]+Time):\s*(?P<value>[\d.]+)\s*ms")
#: ``InitPlan 1 (returns $0)`` / ``SubPlan 2``: labels the node line below it.
_SUBQUERY_PLAN_LINE = re.compile(r"^(?P<relationship>InitPlan|SubPlan)\b")
_ON_CLAUSE = re.compile(
    r"^(?P<operator>.+?)\s+(?:using\s+(?P<index>\S+)\s+)?on\s+(?P<relation>\S+)(?:\s+(?P<alias>\S+))?$"
)

#: Keys of the JSON format that are handled structurally rather than as properties.
_STRUCTURAL_KEYS = {"Node Type", "Plans"}


@register_converter
class PostgreSQLConverter(PlanConverter):
    """Parses PostgreSQL ``EXPLAIN`` output (text and JSON)."""

    dbms = "postgresql"
    aliases = ("postgres", "pg")
    formats = ("text", "json")

    # ------------------------------------------------------------------ JSON

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        if format == "json":
            return self._parse_json(serialized)
        return self._parse_text(serialized)

    def _parse_json(self, serialized: str) -> UnifiedPlan:
        try:
            document = json.loads(serialized)
        except json.JSONDecodeError as exc:
            raise ConversionError(self.dbms, f"invalid JSON plan: {exc}") from exc
        if not isinstance(document, list) or not document:
            raise ConversionError(self.dbms, "expected a non-empty JSON array")
        entry = document[0]
        plan = UnifiedPlan()
        if "Plan" in entry:
            plan.root = document_tree(
                entry["Plan"], self._node_from_json, lambda data: data.get("Plans", [])
            )
        for key, value in entry.items():
            if key == "Plan":
                continue
            plan.properties.append(self.property(key, value))
        return plan

    def _node_from_json(self, data: Dict[str, Any]) -> PlanNode:
        node = self.make_node(str(data.get("Node Type", "Unknown")))
        for key, value in data.items():
            if key in _STRUCTURAL_KEYS:
                continue
            node.properties.append(self.property(key, value))
        return node

    # ------------------------------------------------------------------ text

    def _parse_text(self, serialized: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        tree = IndentedTree()
        node: Optional[PlanNode] = None
        relationship: Optional[str] = None
        for raw_line in serialized.splitlines():
            if not raw_line.strip():
                continue
            subquery_plan = _SUBQUERY_PLAN_LINE.match(raw_line.strip())
            if subquery_plan:
                relationship = subquery_plan.group("relationship")
                continue
            plan_property = _PLAN_PROPERTY_LINE.match(raw_line.strip())
            if plan_property:
                plan.properties.append(
                    self.property(plan_property.group("key"), float(plan_property.group("value")))
                )
                continue
            node_match = _NODE_LINE.match(raw_line)
            if node_match and "cost=" in raw_line:
                depth = len(node_match.group("indent"))
                name, extra_properties = self._split_headline(node_match.group("name"))
                node = self.make_node(name)
                node.properties.append(self.property("Startup Cost", float(node_match.group("startup"))))
                node.properties.append(self.property("Total Cost", float(node_match.group("total"))))
                node.properties.append(self.property("Plan Rows", int(node_match.group("rows"))))
                node.properties.append(self.property("Plan Width", int(node_match.group("width"))))
                for key, value in extra_properties:
                    node.properties.append(self.property(key, value))
                if relationship is not None:
                    node.properties.append(
                        self.property("Parent Relationship", relationship)
                    )
                    relationship = None
                tree.add(depth, node)
                continue
            # Otherwise it is an operation-associated property line.
            stripped = raw_line.strip()
            if ":" in stripped and node is not None:
                key, _, value = stripped.partition(":")
                node.properties.append(self.property(key.strip(), value.strip()))
        plan.root = tree.root
        if plan.root is None and not plan.properties:
            raise ConversionError(self.dbms, "no plan found in text output")
        return plan

    def _split_headline(self, headline: str) -> Tuple[str, List[Tuple[str, object]]]:
        """Split ``Index Scan using i0 on t0 t`` into the operator and properties."""
        extra: List[Tuple[str, object]] = []
        name = headline.strip()
        # Strip "(actual time=..)" fragments that follow the cost parenthesis.
        name = name.split("  (")[0].strip()
        if " on " in name:
            match = _ON_CLAUSE.match(name)
            if match:
                name = match.group("operator").strip()
                if match.group("index"):
                    extra.append(("Index Name", match.group("index")))
                extra.append(("Relation Name", match.group("relation")))
                if match.group("alias"):
                    extra.append(("Alias", match.group("alias")))
        if name.startswith("Parallel "):
            extra.append(("Parallel Aware", True))
            name = name[len("Parallel ") :]
        return name, extra
