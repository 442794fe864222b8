"""A minimal document store backing the simulated MongoDB dialect."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.errors import StorageError

Document = Dict[str, Any]


class DocumentCollection:
    """An ordered collection of documents with single-field indexes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.documents: List[Document] = []
        #: Indexed field names (values are kept sorted lazily on lookup).
        self.indexes: Dict[str, str] = {}

    def insert_many(self, documents: Iterable[Document]) -> int:
        added = 0
        for document in documents:
            self.documents.append(dict(document))
            added += 1
        return added

    def create_index(self, field: str, name: Optional[str] = None) -> str:
        index_name = name or f"{field}_1"
        self.indexes[field] = index_name
        return index_name

    def index_for(self, field: str) -> Optional[str]:
        return self.indexes.get(field)


class DocumentStore:
    """A named set of document collections."""

    def __init__(self) -> None:
        self._collections: Dict[str, DocumentCollection] = {}

    def collection(self, name: str) -> DocumentCollection:
        if name not in self._collections:
            self._collections[name] = DocumentCollection(name)
        return self._collections[name]


def match_filter(document: Document, criteria: Dict[str, Any]) -> bool:
    """Evaluate a MongoDB-style filter document against *document*.

    Supports equality, ``$lt``/``$lte``/``$gt``/``$gte``/``$ne``/``$in``,
    ``$and`` and ``$or``.
    """
    for key, expected in criteria.items():
        if key == "$and":
            if not all(match_filter(document, clause) for clause in expected):
                return False
            continue
        if key == "$or":
            if not any(match_filter(document, clause) for clause in expected):
                return False
            continue
        actual = _resolve_path(document, key)
        if isinstance(expected, dict) and any(op.startswith("$") for op in expected):
            for operator, operand in expected.items():
                if not _apply_operator(actual, operator, operand):
                    return False
        else:
            if actual != expected:
                return False
    return True


def _resolve_path(document: Document, path: str) -> Any:
    current: Any = document
    for part in path.split("."):
        if isinstance(current, dict):
            current = current.get(part)
        else:
            return None
    return current


def _apply_operator(actual: Any, operator: str, operand: Any) -> bool:
    if actual is None and operator not in {"$ne", "$exists"}:
        return False
    try:
        if operator == "$lt":
            return actual < operand
        if operator == "$lte":
            return actual <= operand
        if operator == "$gt":
            return actual > operand
        if operator == "$gte":
            return actual >= operand
        if operator == "$ne":
            return actual != operand
        if operator == "$eq":
            return actual == operand
        if operator == "$in":
            return actual in operand
        if operator == "$exists":
            return (actual is not None) == bool(operand)
    except TypeError:
        return False
    raise StorageError(f"unsupported filter operator {operator!r}")
