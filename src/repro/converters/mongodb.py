"""Converter for MongoDB ``explain()`` documents (JSON format)."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.converters.base import PlanConverter, document_tree, register_converter
from repro.core.model import PlanNode, UnifiedPlan
from repro.errors import ConversionError


@register_converter
class MongoDBConverter(PlanConverter):
    """Parses MongoDB explain documents into the unified representation."""

    dbms = "mongodb"
    aliases = ("mongo",)
    formats = ("json",)

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        try:
            document = json.loads(serialized)
        except json.JSONDecodeError as exc:
            raise ConversionError(self.dbms, f"invalid explain JSON: {exc}") from exc
        planner = document.get("queryPlanner", {})
        winning = planner.get("winningPlan")
        if winning is None:
            raise ConversionError(self.dbms, "explain document has no winningPlan")
        plan = UnifiedPlan()
        plan.root = document_tree(winning, self._node_from_stage, _input_stages)
        if "namespace" in planner:
            plan.properties.append(self.property("namespace", planner["namespace"]))
        for key, value in document.get("executionStats", {}).items():
            if isinstance(value, (int, float, str, bool)):
                plan.properties.append(self.property(key, value))
        server = document.get("serverInfo", {})
        if "version" in server:
            plan.properties.append(self.property("version", server["version"]))
        return plan

    def _node_from_stage(self, stage: Dict[str, Any]) -> PlanNode:
        node = self.make_node(str(stage.get("stage", "UNKNOWN")))
        for key, value in stage.items():
            if key in {"stage", "inputStage", "inputStages"}:
                continue
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, default=str)
            node.properties.append(self.property(key, value))
        return node


def _input_stages(stage: Dict[str, Any]) -> List[Any]:
    """A stage's inputs: its ``inputStage``, then its ``inputStages``."""
    single = [stage["inputStage"]] if "inputStage" in stage else []
    return single + list(stage.get("inputStages", []))
