"""Simulated MongoDB dialect.

MongoDB stores documents and exposes query plans through ``explain()`` as a
JSON document whose ``queryPlanner.winningPlan`` nests stages via
``inputStage`` (COLLSCAN, IXSCAN, FETCH, PROJECTION_SIMPLE, SORT, LIMIT,
GROUP).  Queries are issued either as Python dictionaries (``find`` /
``aggregate``) or as a JSON command string through ``execute``.

MongoDB has no Join-category operations (Table II / VI of the paper): the
document model embeds related entities in a single document, which is exactly
how the paper rewrites TPC-H queries 1, 3 and 4 for MongoDB.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.formats.json_emit import dumps_indented
from repro.dialects.base import ExplainOutput, RawPlan, RawPlanNode, SimulatedDBMS, render_dot_plan
from repro.errors import DialectError
from repro.storage.document_store import Document, DocumentStore, match_filter


class MongoDBDialect(SimulatedDBMS):
    """The simulated MongoDB 6.0.5 instance."""

    name = "mongodb"
    version = "6.0.5"
    data_model = "document"
    plan_formats = ("json", "graph")
    default_format = "json"

    def __init__(self) -> None:
        self.store = DocumentStore()

    # ------------------------------------------------------------------ data API

    def insert_many(self, collection: str, documents: Sequence[Document]) -> int:
        """Insert documents into a collection (created on first use)."""
        return self.store.collection(collection).insert_many(documents)

    def create_index(self, collection: str, field: str) -> str:
        """Create a single-field ascending index."""
        return self.store.collection(collection).create_index(field)

    # ------------------------------------------------------------------ queries

    def find(
        self,
        collection: str,
        criteria: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
    ) -> List[Document]:
        """Run a ``find`` query and return matching documents."""
        documents = [
            document
            for document in self.store.collection(collection).documents
            if match_filter(document, criteria or {})
        ]
        if sort:
            for field, direction in reversed(sort):
                documents.sort(
                    key=lambda doc: (doc.get(field) is None, doc.get(field)),
                    reverse=direction < 0,
                )
        if limit is not None:
            documents = documents[:limit]
        if projection:
            documents = [
                {key: document.get(key) for key, keep in projection.items() if keep}
                for document in documents
            ]
        return documents

    def aggregate(self, collection: str, pipeline: Sequence[Dict[str, Any]]) -> List[Document]:
        """Run an aggregation pipeline ($match, $group, $project, $sort, $limit, $unwind)."""
        documents = [dict(doc) for doc in self.store.collection(collection).documents]
        for stage in pipeline:
            documents = self._apply_stage(documents, stage)
        return documents

    def _apply_stage(self, documents: List[Document], stage: Dict[str, Any]) -> List[Document]:
        if "$match" in stage:
            return [doc for doc in documents if match_filter(doc, stage["$match"])]
        if "$unwind" in stage:
            path = stage["$unwind"].lstrip("$")
            output = []
            for doc in documents:
                values = doc.get(path) or []
                for value in values if isinstance(values, list) else [values]:
                    copy = dict(doc)
                    copy[path] = value
                    output.append(copy)
            return output
        if "$group" in stage:
            spec = stage["$group"]
            groups: Dict[Any, Document] = {}
            order: List[Any] = []
            for doc in documents:
                key = self._resolve(doc, spec["_id"])
                marker = json.dumps(key, sort_keys=True, default=str)
                if marker not in groups:
                    groups[marker] = {"_id": key}
                    for field, accumulator in spec.items():
                        if field != "_id":
                            groups[marker][field] = None
                    order.append(marker)
                entry = groups[marker]
                for field, accumulator in spec.items():
                    if field == "_id":
                        continue
                    operator, operand = next(iter(accumulator.items()))
                    value = self._resolve(doc, operand)
                    entry[field] = self._accumulate(entry[field], operator, value)
            return [groups[marker] for marker in order]
        if "$project" in stage:
            spec = stage["$project"]
            return [
                {
                    field: (self._resolve(doc, rule) if not isinstance(rule, int) else doc.get(field))
                    for field, rule in spec.items()
                    if rule
                }
                for doc in documents
            ]
        if "$sort" in stage:
            for field, direction in reversed(list(stage["$sort"].items())):
                documents.sort(
                    key=lambda doc: (doc.get(field) is None, doc.get(field)),
                    reverse=direction < 0,
                )
            return documents
        if "$limit" in stage:
            return documents[: int(stage["$limit"])]
        raise DialectError(self.name, f"unsupported pipeline stage {list(stage)[0]!r}")

    def _resolve(self, document: Document, expression: Any) -> Any:
        if isinstance(expression, str) and expression.startswith("$"):
            current: Any = document
            for part in expression[1:].split("."):
                current = current.get(part) if isinstance(current, dict) else None
            return current
        if isinstance(expression, dict):
            if "$multiply" in expression:
                product = 1.0
                for operand in expression["$multiply"]:
                    value = self._resolve(document, operand)
                    if value is None:
                        return None
                    product *= value
                return product
            if "$subtract" in expression:
                left, right = (self._resolve(document, op) for op in expression["$subtract"])
                return None if left is None or right is None else left - right
            if "$add" in expression:
                total = 0.0
                for operand in expression["$add"]:
                    value = self._resolve(document, operand)
                    if value is None:
                        return None
                    total += value
                return total
        return expression

    def _accumulate(self, current: Any, operator: str, value: Any) -> Any:
        if operator == "$sum":
            increment = value if isinstance(value, (int, float)) else 0
            return (current or 0) + increment
        if operator == "$avg":
            # Stored as (total, count) tuple internally; finalised lazily.
            total, count = current if isinstance(current, tuple) else (0.0, 0)
            if isinstance(value, (int, float)):
                return (total + value, count + 1)
            return (total, count)
        if operator == "$min":
            if value is None:
                return current
            return value if current is None or value < current else current
        if operator == "$max":
            if value is None:
                return current
            return value if current is None or value > current else current
        if operator == "$first":
            return current if current is not None else value
        if operator == "$count":
            return (current or 0) + 1
        raise DialectError(self.name, f"unsupported accumulator {operator!r}")

    # ------------------------------------------------------------------ explain

    def explain_find(
        self,
        collection: str,
        criteria: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Build the explain document for a ``find`` query."""
        stage = self._access_stage(collection, criteria or {})
        if sort:
            stage = {"stage": "SORT", "sortPattern": dict(sort), "inputStage": stage}
        if limit is not None:
            stage = {"stage": "LIMIT", "limitAmount": limit, "inputStage": stage}
        if projection:
            stage = {
                "stage": "PROJECTION_SIMPLE",
                "transformBy": projection,
                "inputStage": stage,
            }
        return self._wrap_plan(collection, stage)

    def explain_aggregate(
        self, collection: str, pipeline: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Build the explain document for an aggregation pipeline."""
        criteria = {}
        for stage_spec in pipeline:
            if "$match" in stage_spec:
                criteria = stage_spec["$match"]
                break
        stage = self._access_stage(collection, criteria)
        for stage_spec in pipeline:
            if "$unwind" in stage_spec:
                stage = {"stage": "UNWIND", "inputStage": stage}
            elif "$group" in stage_spec:
                stage = {
                    "stage": "GROUP",
                    "idExpression": stage_spec["$group"].get("_id"),
                    "inputStage": stage,
                }
            elif "$project" in stage_spec:
                stage = {
                    "stage": "PROJECTION_DEFAULT",
                    "transformBy": stage_spec["$project"],
                    "inputStage": stage,
                }
            elif "$sort" in stage_spec:
                stage = {
                    "stage": "SORT",
                    "sortPattern": stage_spec["$sort"],
                    "inputStage": stage,
                }
            elif "$limit" in stage_spec:
                stage = {
                    "stage": "LIMIT",
                    "limitAmount": stage_spec["$limit"],
                    "inputStage": stage,
                }
        return self._wrap_plan(collection, stage)

    def _access_stage(self, collection: str, criteria: Dict[str, Any]) -> Dict[str, Any]:
        indexed_field = None
        for field in criteria:
            if field.startswith("$"):
                continue
            if self.store.collection(collection).index_for(field):
                indexed_field = field
                break
        if indexed_field is not None:
            index_scan = {
                "stage": "IXSCAN",
                "indexName": self.store.collection(collection).index_for(indexed_field),
                "keyPattern": {indexed_field: 1},
                "direction": "forward",
            }
            return {"stage": "FETCH", "filter": criteria, "inputStage": index_scan}
        return {"stage": "COLLSCAN", "filter": criteria, "direction": "forward"}

    def _wrap_plan(self, collection: str, winning: Dict[str, Any]) -> Dict[str, Any]:
        documents = len(self.store.collection(collection).documents)
        return {
            "queryPlanner": {
                "namespace": f"benchmark.{collection}",
                "winningPlan": winning,
                "rejectedPlans": [],
            },
            "executionStats": {
                "nReturned": documents,
                "totalKeysExamined": documents,
                "totalDocsExamined": documents,
                "executionTimeMillis": 1,
            },
            "serverInfo": {"version": self.version},
        }

    # ------------------------------------------------------------------ SimulatedDBMS API

    def execute(self, statement: str) -> List[Document]:
        """Execute a JSON command: ``{"find"| "aggregate"| "insert": ...}``."""
        command = json.loads(statement)
        if "insert" in command:
            self.insert_many(command["insert"], command.get("documents", []))
            return [{"ok": 1}]
        if "find" in command:
            return self.find(
                command["find"],
                command.get("filter"),
                command.get("projection"),
                [tuple(item) for item in command.get("sort", [])] or None,
                command.get("limit"),
            )
        if "aggregate" in command:
            return self.aggregate(command["aggregate"], command.get("pipeline", []))
        raise DialectError(self.name, f"unsupported command: {sorted(command)}")

    def explain(
        self, statement: str, format: Optional[str] = None, analyze: bool = False
    ) -> ExplainOutput:
        chosen = self._check_format(format)
        command = json.loads(statement)
        if "find" in command:
            document = self.explain_find(
                command["find"],
                command.get("filter"),
                command.get("projection"),
                [tuple(item) for item in command.get("sort", [])] or None,
                command.get("limit"),
            )
        elif "aggregate" in command:
            document = self.explain_aggregate(command["aggregate"], command.get("pipeline", []))
        else:
            raise DialectError(self.name, "explain requires a find or aggregate command")
        if chosen == "json":
            text = dumps_indented(document, default=str)
        else:  # graph
            text = self._graph_from_plan(document)
        return ExplainOutput(dbms=self.name, format=chosen, text=text, query=statement)

    def _graph_from_plan(self, document: Dict[str, Any]) -> str:
        stage = document["queryPlanner"]["winningPlan"]
        root = node = RawPlanNode(stage.get("stage", "?"))
        while stage.get("inputStage"):
            stage = stage["inputStage"]
            node.children.append(RawPlanNode(stage.get("stage", "?")))
            node = node.children[0]
        return render_dot_plan(RawPlan(root), "mongodb_plan", ["node [shape=box]"])
