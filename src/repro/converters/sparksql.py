"""Converter for SparkSQL textual physical plans (``== Physical Plan ==``)."""

from __future__ import annotations

import re

from repro.converters.base import IndentedTree, PlanConverter, register_converter
from repro.core.model import UnifiedPlan
from repro.errors import ConversionError

_LINE = re.compile(r"^(?P<indent>\s*)(?:\+- )?(?:\*\(\d+\)\s+)?(?P<name>\S.*)$")


@register_converter
class SparkSQLConverter(PlanConverter):
    """Parses the textual ``EXPLAIN`` output of SparkSQL."""

    dbms = "sparksql"
    aliases = ("spark",)
    formats = ("text",)

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        plan = UnifiedPlan()
        tree = IndentedTree()
        for raw_line in serialized.splitlines():
            if not raw_line.strip() or raw_line.strip().startswith("=="):
                continue
            match = _LINE.match(raw_line)
            if not match:
                continue
            depth = len(match.group("indent"))
            full_name = match.group("name").strip()
            operator = self._operator_name(full_name)
            node = self.make_node(operator)
            details = full_name[len(operator) :].strip()
            if details:
                node.properties.append(self.property("details", details))
            tree.add(depth, node)
        plan.root = tree.root
        if plan.root is None:
            raise ConversionError(self.dbms, "no physical plan found")
        return plan

    def _operator_name(self, text: str) -> str:
        """Extract the operator name from a plan line.

        ``HashAggregate(keys=[...], functions=[...])`` → ``HashAggregate``;
        ``Exchange hashpartitioning(c0, 200)`` → ``Exchange``;
        ``Scan ExistingRDD lineitem`` → ``Scan ExistingRDD``.
        """
        name = text.split("(")[0].strip()
        first_word = name.split(" ")[0]
        if first_word in {"Exchange", "Sort", "Filter", "Project", "Union", "Subquery"}:
            return first_word
        if name.startswith("Scan"):
            return "Scan ExistingRDD"
        if name.startswith("BroadcastHashJoin"):
            return "BroadcastHashJoin"
        if name.startswith("SortMergeJoin"):
            return "SortMergeJoin"
        if name.startswith("TakeOrderedAndProject"):
            return "TakeOrderedAndProject"
        return name
