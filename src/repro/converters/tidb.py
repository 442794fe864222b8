"""Converter for TiDB serialized query plans (tabular, text, and JSON formats).

TiDB operator names carry auto-generated numeric suffixes (``HashJoin_9``);
the converter strips them when resolving the unified operation name and keeps
the original identifier as a Status property.  Failing to strip these suffixes
is exactly the implementation bug the paper found in QPG's original
DBMS-specific TiDB parser.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, Tuple

from repro.converters.base import (
    IndentedTree,
    PlanConverter,
    document_tree,
    read_ascii_table,
    register_converter,
)
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError

_SUFFIX = re.compile(r"_\d+$")
_TREE_PREFIX = re.compile(r"^(?P<prefix>(?:[\s│|]*)(?:└─|├─)?)(?P<name>\S.*)$")


@register_converter
class TiDBConverter(PlanConverter):
    """Parses TiDB ``EXPLAIN`` output (table, text tree, JSON)."""

    dbms = "tidb"
    aliases = ()  # no alias in common use
    formats = ("table", "text", "json")

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        if format == "json":
            return self._parse_json(serialized)
        if format == "table":
            # The id column carries the tree; the other columns are properties.
            rows = read_ascii_table(serialized, indented=("id",))
            return self._parse_tree((row["id"], row) for row in rows)
        return self._parse_tree((line, {}) for line in serialized.splitlines())

    def _strip_suffix(self, name: str) -> Tuple[str, str]:
        return _SUFFIX.sub("", name), name

    def _make_tidb_node(self, raw_name: str) -> PlanNode:
        base_name, full_name = self._strip_suffix(raw_name.strip())
        node = self.make_node(base_name)
        if full_name != base_name:
            node.properties.append(self.property("operator id", full_name))
        return node

    # ------------------------------------------------------------------ JSON

    def _parse_json(self, serialized: str) -> UnifiedPlan:
        try:
            document = json.loads(serialized)
        except json.JSONDecodeError as exc:
            raise ConversionError(self.dbms, f"invalid JSON plan: {exc}") from exc
        if isinstance(document, list):
            document = document[0] if document else {}
        plan = UnifiedPlan()
        if document:
            plan.root = document_tree(
                document, self._node_from_json, lambda data: data.get("subOperators", [])
            )
        return plan

    def _node_from_json(self, data: Dict[str, Any]) -> PlanNode:
        node = self._make_tidb_node(str(data.get("id", "Unknown")))
        for key, value in data.items():
            if key in {"id", "subOperators"}:
                continue
            node.properties.append(self.property(key, value))
        return node

    # ------------------------------------------------------------------ table / text

    def _parse_tree(self, lines: Iterable[Tuple[str, Dict[str, str]]]) -> UnifiedPlan:
        """Nest ``(└─ / ├─ tree label, property columns)`` lines."""
        plan = UnifiedPlan()
        tree = IndentedTree()
        for line, columns in lines:
            if line.strip().startswith("+") or not line.strip():
                continue
            match = _TREE_PREFIX.match(line)
            if not match:
                continue
            prefix = match.group("prefix")
            name = match.group("name").strip()
            if not name or name == "id":
                continue
            depth = 0 if "└─" not in prefix and "├─" not in prefix else (
                (len(prefix.replace("└─", "").replace("├─", "")) // 2) + 1
            )
            node = self._make_tidb_node(name)
            for key, value in columns.items():
                if key != "id" and value:
                    node.properties.append(self.property(key, value))
            tree.add(depth, node)
        plan.root = tree.root
        if plan.root is None:
            raise ConversionError(self.dbms, "no plan rows found in EXPLAIN output")
        return plan
