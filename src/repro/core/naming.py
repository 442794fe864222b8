"""The unified naming convention and the DBMS-name mapping registry.

Section IV of the paper introduces a unified naming convention: operations and
properties that share semantics across DBMSs are mapped to a single unified
name (e.g. PostgreSQL's ``Seq Scan``, SQL Server's ``Table Scan`` and TiDB's
``TableFullScan`` all become ``Full Table Scan``).  This module provides:

* the core unified operation vocabulary with its category assignment,
* the core unified property vocabulary with its category assignment,
* :class:`NameRegistry`, which stores per-DBMS mappings from native names to
  unified names and resolves unknown names with predictable fallbacks, which
  is what makes the representation *extensible* (Section IV-B).

The per-DBMS mappings themselves live in :mod:`repro.study.catalogues`, which
is generated from the case-study data and registered into the default
registry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.categories import OperationCategory, PropertyCategory
from repro.errors import NamingError

# ---------------------------------------------------------------------------
# Identifier interning
# ---------------------------------------------------------------------------


class IdentifierPool:
    """A bounded string-intern pool for operation and property identifiers.

    Plans converted from the same DBMS repeat a small vocabulary of unified
    names millions of times at scale; interning makes every occurrence share
    one string object, so equality checks hit CPython's pointer fast path and
    per-plan memory stays bounded by the vocabulary, not the corpus.  The
    pipeline layer relies on this when deduplicating batches by fingerprint.

    The pool is capped: high-cardinality names (auto-numbered operators like
    TiDB's ``TableFullScan_5`` seen during day-long fuzzing campaigns) would
    otherwise grow it without bound.  Once full, unseen names pass through
    un-pooled — correctness is unaffected, they just don't share storage.
    """

    __slots__ = ("_pool", "max_size")

    def __init__(self, max_size: int = 65536) -> None:
        self._pool: Dict[str, str] = {}
        self.max_size = max_size

    def intern(self, text: str) -> str:
        """Return the pooled instance of *text*, adding it while room remains."""
        pooled = self._pool.get(text)
        if pooled is not None:
            return pooled
        if len(self._pool) >= self.max_size:
            return text
        self._pool[text] = text
        return text

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, text: str) -> bool:
        return text in self._pool


#: Process-wide pool shared by the model layer and the name registry.
_IDENTIFIER_POOL = IdentifierPool()


def intern_identifier(text: str) -> str:
    """Intern *text* in the process-wide identifier pool."""
    return _IDENTIFIER_POOL.intern(text)


def identifier_pool() -> IdentifierPool:
    """Return the process-wide identifier pool (mainly for introspection)."""
    return _IDENTIFIER_POOL


# ---------------------------------------------------------------------------
# Core unified vocabulary
# ---------------------------------------------------------------------------

#: Unified operation names and their categories.  This is the shared
#: vocabulary used when converting DBMS-specific plans; DBMS-specific
#: operations without a shared counterpart keep a cleaned native name.
UNIFIED_OPERATIONS: Dict[str, OperationCategory] = {
    # Producer --------------------------------------------------------------
    "Full Table Scan": OperationCategory.PRODUCER,
    "Index Scan": OperationCategory.PRODUCER,
    "Index Only Scan": OperationCategory.PRODUCER,
    "Index Range Scan": OperationCategory.PRODUCER,
    "Id Scan": OperationCategory.PRODUCER,
    "Bitmap Index Scan": OperationCategory.PRODUCER,
    "Bitmap Heap Scan": OperationCategory.PRODUCER,
    "Constant Scan": OperationCategory.PRODUCER,
    "Values Scan": OperationCategory.PRODUCER,
    "Function Scan": OperationCategory.PRODUCER,
    "Subquery Scan": OperationCategory.PRODUCER,
    "CTE Scan": OperationCategory.PRODUCER,
    "Sample Scan": OperationCategory.PRODUCER,
    "Label Scan": OperationCategory.PRODUCER,
    "Collection Scan": OperationCategory.PRODUCER,
    "Document Fetch": OperationCategory.PRODUCER,
    "Series Scan": OperationCategory.PRODUCER,
    # Combinator -------------------------------------------------------------
    "Sort": OperationCategory.COMBINATOR,
    "Top N Sort": OperationCategory.COMBINATOR,
    "Limit": OperationCategory.COMBINATOR,
    "Offset": OperationCategory.COMBINATOR,
    "Union": OperationCategory.COMBINATOR,
    "Intersect": OperationCategory.COMBINATOR,
    "Except": OperationCategory.COMBINATOR,
    "Append": OperationCategory.COMBINATOR,
    "Merge Append": OperationCategory.COMBINATOR,
    "Distinct": OperationCategory.COMBINATOR,
    "Compound Query": OperationCategory.COMBINATOR,
    # Join ---------------------------------------------------------------------
    "Hash Join": OperationCategory.JOIN,
    "Merge Join": OperationCategory.JOIN,
    "Nested Loop Join": OperationCategory.JOIN,
    "Index Join": OperationCategory.JOIN,
    "Index Hash": OperationCategory.JOIN,
    "Cartesian Product": OperationCategory.JOIN,
    "Semi Join": OperationCategory.JOIN,
    "Anti Join": OperationCategory.JOIN,
    "Expand": OperationCategory.JOIN,
    "Relationship Scan": OperationCategory.JOIN,
    # Folder ---------------------------------------------------------------------
    "Aggregate": OperationCategory.FOLDER,
    "Aggregate Hash": OperationCategory.FOLDER,
    "Aggregate Stream": OperationCategory.FOLDER,
    "Group": OperationCategory.FOLDER,
    "Window": OperationCategory.FOLDER,
    "Grouping Sets": OperationCategory.FOLDER,
    # Projector -----------------------------------------------------------------
    "Project": OperationCategory.PROJECTOR,
    "Projection": OperationCategory.PROJECTOR,
    "Produce Results": OperationCategory.PROJECTOR,
    # Executor -------------------------------------------------------------------
    "Collect": OperationCategory.EXECUTOR,
    "Collect Order": OperationCategory.EXECUTOR,
    "Gather": OperationCategory.EXECUTOR,
    "Gather Merge": OperationCategory.EXECUTOR,
    "Hash Row": OperationCategory.EXECUTOR,
    "Materialize": OperationCategory.EXECUTOR,
    "Memoize": OperationCategory.EXECUTOR,
    "Exchange Sender": OperationCategory.EXECUTOR,
    "Exchange Receiver": OperationCategory.EXECUTOR,
    "Shuffle": OperationCategory.EXECUTOR,
    "Filter Step": OperationCategory.EXECUTOR,
    "Result": OperationCategory.EXECUTOR,
    "Selection": OperationCategory.EXECUTOR,
    # Consumer --------------------------------------------------------------------
    "Insert": OperationCategory.CONSUMER,
    "Update": OperationCategory.CONSUMER,
    "Delete": OperationCategory.CONSUMER,
    "Create Table": OperationCategory.CONSUMER,
    "Create Index": OperationCategory.CONSUMER,
    "Set Variable": OperationCategory.CONSUMER,
}

#: Unified property names and their categories.
UNIFIED_PROPERTIES: Dict[str, PropertyCategory] = {
    # Cardinality -----------------------------------------------------------------
    "Estimated Rows": PropertyCategory.CARDINALITY,
    "Actual Rows": PropertyCategory.CARDINALITY,
    "Row Width": PropertyCategory.CARDINALITY,
    "Rows Examined": PropertyCategory.CARDINALITY,
    "Rows Returned": PropertyCategory.CARDINALITY,
    "Documents Examined": PropertyCategory.CARDINALITY,
    "Keys Examined": PropertyCategory.CARDINALITY,
    # Cost -----------------------------------------------------------------------
    "Startup Cost": PropertyCategory.COST,
    "Total Cost": PropertyCategory.COST,
    "Read Cost": PropertyCategory.COST,
    "Eval Cost": PropertyCategory.COST,
    "Prefix Cost": PropertyCategory.COST,
    "Estimated Cost": PropertyCategory.COST,
    "Database Accesses": PropertyCategory.COST,
    "Memory": PropertyCategory.COST,
    # Configuration -----------------------------------------------------------------
    "Filter": PropertyCategory.CONFIGURATION,
    "Index Condition": PropertyCategory.CONFIGURATION,
    "Join Condition": PropertyCategory.CONFIGURATION,
    "Sort Key": PropertyCategory.CONFIGURATION,
    "Group Key": PropertyCategory.CONFIGURATION,
    "Recheck Condition": PropertyCategory.CONFIGURATION,
    "name object": PropertyCategory.CONFIGURATION,
    "index name": PropertyCategory.CONFIGURATION,
    "Output Columns": PropertyCategory.CONFIGURATION,
    "Join Type": PropertyCategory.CONFIGURATION,
    "Access Type": PropertyCategory.CONFIGURATION,
    "Parent Relationship": PropertyCategory.CONFIGURATION,
    # Status ---------------------------------------------------------------------
    "Planning Time": PropertyCategory.STATUS,
    "Execution Time": PropertyCategory.STATUS,
    "Actual Time": PropertyCategory.STATUS,
    "Workers Planned": PropertyCategory.STATUS,
    "Workers Launched": PropertyCategory.STATUS,
    "Task Type": PropertyCategory.STATUS,
    "Runtime Version": PropertyCategory.STATUS,
    "Planner": PropertyCategory.STATUS,
    "Shards Queried": PropertyCategory.STATUS,
}


def clean_identifier(name: str) -> str:
    """Normalise a native name into a grammar-compatible identifier.

    Non-alphanumeric characters become spaces, camel case is split into
    words, and leading digits are prefixed so the result starts with a letter.
    """
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    cleaned = re.sub(r"[^A-Za-z0-9_]+", " ", spaced).strip()
    cleaned = re.sub(r"\s+", " ", cleaned)
    if not cleaned:
        return "Unknown"
    if not cleaned[0].isalpha():
        cleaned = "Op " + cleaned
    return cleaned


@dataclass(frozen=True)
class OperationMapping:
    """One native-operation → unified-operation mapping entry."""

    dbms: str
    native_name: str
    unified_name: str
    category: OperationCategory


@dataclass(frozen=True)
class PropertyMapping:
    """One native-property → unified-property mapping entry."""

    dbms: str
    native_name: str
    unified_name: str
    category: PropertyCategory


class NameRegistry:
    """Stores and resolves DBMS-specific → unified name mappings.

    The registry is the concrete realisation of the paper's extensibility
    goal: adding support for a new DBMS, or for a new operation in an existing
    DBMS (the "LLM Join" example of Section IV-B), is a matter of registering
    additional keyword mappings; nothing else changes.
    """

    def __init__(self) -> None:
        self._operations: Dict[Tuple[str, str], OperationMapping] = {}
        self._properties: Dict[Tuple[str, str], PropertyMapping] = {}
        #: Bumped by every registration; whoever memoises resolutions (the
        #: converters) compares it to know when to start over.
        self.generation = 0

    # -- registration ------------------------------------------------------------

    def register_operation(
        self,
        dbms: str,
        native_name: str,
        category: OperationCategory,
        unified_name: Optional[str] = None,
    ) -> OperationMapping:
        """Register a native operation name for *dbms*.

        When *unified_name* is omitted, the cleaned native name is used, which
        is how DBMS-specific operations without a cross-system counterpart are
        kept in the representation.
        """
        unified = intern_identifier(unified_name or clean_identifier(native_name))
        mapping = OperationMapping(dbms.lower(), native_name, unified, category)
        self._operations[(dbms.lower(), native_name.lower())] = mapping
        self.generation += 1
        return mapping

    def register_property(
        self,
        dbms: str,
        native_name: str,
        category: PropertyCategory,
        unified_name: Optional[str] = None,
    ) -> PropertyMapping:
        """Register a native property name for *dbms*."""
        unified = intern_identifier(unified_name or clean_identifier(native_name))
        mapping = PropertyMapping(dbms.lower(), native_name, unified, category)
        self._properties[(dbms.lower(), native_name.lower())] = mapping
        self.generation += 1
        return mapping

    def register_operations(
        self,
        dbms: str,
        entries: Iterable[Tuple[str, OperationCategory, Optional[str]]],
    ) -> None:
        """Bulk-register ``(native, category, unified_or_None)`` operations."""
        for native_name, category, unified_name in entries:
            self.register_operation(dbms, native_name, category, unified_name)

    def register_properties(
        self,
        dbms: str,
        entries: Iterable[Tuple[str, PropertyCategory, Optional[str]]],
    ) -> None:
        """Bulk-register ``(native, category, unified_or_None)`` properties."""
        for native_name, category, unified_name in entries:
            self.register_property(dbms, native_name, category, unified_name)

    # -- resolution --------------------------------------------------------------

    def resolve_operation(
        self, dbms: str, native_name: str, strict: bool = False
    ) -> Tuple[OperationCategory, str]:
        """Map a native operation name to ``(category, unified_name)``.

        Unknown names fall back to the :class:`OperationCategory.EXECUTOR`
        category with a cleaned identifier — the "generic handling" that keeps
        applications forward-compatible — unless *strict* is set.
        """
        mapping = self._operations.get((dbms.lower(), native_name.lower()))
        if mapping is not None:
            return mapping.category, mapping.unified_name
        cleaned = intern_identifier(clean_identifier(native_name))
        fallback = UNIFIED_OPERATIONS.get(cleaned)
        if fallback is not None:
            return fallback, cleaned
        if strict:
            raise NamingError(f"unknown operation {native_name!r} for DBMS {dbms!r}")
        return OperationCategory.EXECUTOR, cleaned

    def resolve_property(
        self, dbms: str, native_name: str, strict: bool = False
    ) -> Tuple[PropertyCategory, str]:
        """Map a native property name to ``(category, unified_name)``.

        Unknown names fall back to :class:`PropertyCategory.STATUS` — the most
        generic property category — unless *strict* is set.
        """
        mapping = self._properties.get((dbms.lower(), native_name.lower()))
        if mapping is not None:
            return mapping.category, mapping.unified_name
        cleaned = intern_identifier(clean_identifier(native_name))
        fallback = UNIFIED_PROPERTIES.get(cleaned)
        if fallback is not None:
            return fallback, cleaned
        if strict:
            raise NamingError(f"unknown property {native_name!r} for DBMS {dbms!r}")
        return PropertyCategory.STATUS, cleaned

    # -- introspection -------------------------------------------------------------

    def operations_for(self, dbms: str) -> List[OperationMapping]:
        """Return every operation mapping registered for *dbms*."""
        return [m for (d, _), m in self._operations.items() if d == dbms.lower()]

    def properties_for(self, dbms: str) -> List[PropertyMapping]:
        """Return every property mapping registered for *dbms*."""
        return [m for (d, _), m in self._properties.items() if d == dbms.lower()]

    def dbms_names(self) -> List[str]:
        """Return the DBMSs that have at least one registered mapping."""
        names = {d for d, _ in self._operations} | {d for d, _ in self._properties}
        return sorted(names)

    def operation_count(self, dbms: str, category: Optional[OperationCategory] = None) -> int:
        """Count registered operations for *dbms*, optionally per category."""
        mappings = self.operations_for(dbms)
        if category is None:
            return len(mappings)
        return sum(1 for m in mappings if m.category is category)


#: The process-wide default registry.  :mod:`repro.study.catalogues` populates
#: it with the full case-study mappings on import.
DEFAULT_REGISTRY = NameRegistry()


def default_registry() -> NameRegistry:
    """Return the default registry, ensuring the study catalogues are loaded."""
    # Imported lazily to avoid a circular import at module load time.
    from repro.study import catalogues  # noqa: F401  (import populates registry)

    return DEFAULT_REGISTRY
