"""Converter for SQLite ``EXPLAIN QUERY PLAN`` output (text format only)."""

from __future__ import annotations

import re

from repro.converters.base import IndentedTree, PlanConverter, register_converter
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError

_LINE = re.compile(r"^(?P<prefix>[\s|`]*)(?:[|`]--)(?P<name>.+)$")
_SEARCH = re.compile(
    r"^SEARCH\s+(?P<table>\S+)\s+USING\s+(?P<covering>AUTOMATIC\s+COVERING\s+INDEX|COVERING\s+INDEX|INDEX)\s*"
    r"(?P<index>\S+)?\s*(?:\((?P<condition>.*)\))?$",
    re.IGNORECASE,
)
_SCAN = re.compile(r"^SCAN\s+(?P<table>\S+)$", re.IGNORECASE)


@register_converter
class SQLiteConverter(PlanConverter):
    """Parses SQLite's compact textual query plans."""

    dbms = "sqlite"
    aliases = ("sqlite3",)
    formats = ("text",)

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        tree = IndentedTree()
        for raw_line in serialized.splitlines():
            if not raw_line.strip() or raw_line.strip() == "QUERY PLAN":
                continue
            match = _LINE.match(raw_line)
            if match:
                depth = self._depth(match.group("prefix"))
                name = match.group("name").strip()
            else:
                depth = 0
                name = raw_line.strip()
            # SQLite lists several top-level steps: the first is the root and
            # every later step nests under it, as if indented one level less.
            tree.add(depth if tree.root is not None else -1, self._node_for(name))
        plan.root = tree.root
        if plan.root is None:
            raise ConversionError(self.dbms, "no query plan steps found")
        return plan

    def _depth(self, prefix: str) -> int:
        # Each nesting level adds three characters ("|  " or "   ").
        return len(prefix) // 3

    def _node_for(self, text: str) -> PlanNode:
        search = _SEARCH.match(text)
        if search:
            covering = "COVERING" in search.group("covering").upper()
            name = "SEARCH USING COVERING INDEX" if covering else "SEARCH USING INDEX"
            node = self.make_node(name)
            node.properties.append(self.property("table", search.group("table")))
            if search.group("index"):
                node.properties.append(self.property("index", search.group("index")))
            if search.group("condition"):
                node.properties.append(self.property("condition", search.group("condition")))
            return node
        scan = _SCAN.match(text)
        if scan:
            node = self.make_node("SCAN")
            node.properties.append(self.property("table", scan.group("table")))
            return node
        # Keep combinator / temp-btree steps verbatim (they are operation names).
        return self.make_node(text.split("(")[0].strip())
