"""Converter base class and the registry-driven conversion hub.

A *converter* parses a DBMS-specific serialized query plan (the raw text or
JSON that ``EXPLAIN`` returned) into the unified representation.  The paper
implemented five such converters of roughly 200 lines each; this package
provides one for every studied DBMS.  Converters rely on the
:class:`~repro.core.naming.NameRegistry` populated from the case-study
catalogues, so an unknown operation or property never fails the conversion —
it falls back to a generic category, which is what keeps applications
forward-compatible (Section IV-B).

The :class:`ConverterHub` is the registry the dialect converters register
through (via :func:`register_converter`) and the single entry point the
pipeline layer converts through.  It resolves DBMS names and aliases,
instantiates one converter per DBMS lazily, and memoises conversions in an
LRU cache keyed by ``(dbms, format, source-hash)`` — repeated ingestion of
identical raw plans parses once and returns the cached
:class:`~repro.core.model.UnifiedPlan`.  Cached plans are shared objects:
callers must treat them as frozen (the fingerprint caches rely on this) and
``copy()`` a plan before mutating it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Type

from repro.core.caching import CacheStats, LRUCache
from repro.core.categories import PropertyCategory
from repro.core.model import MALFORMED_INPUT_ERRORS, Operation, PlanNode, Property, UnifiedPlan
from repro.core.naming import NameRegistry, default_registry
from repro.errors import ConversionError


#: Entries one converter memoises, per kind (operation names, property
#: names, property values); once full, unseen ones resolve afresh on every
#: call (the ``IdentifierPool`` rule).
_NAME_MEMO_LIMIT = 4096

#: Raw value types the property memo keys on.  Exact types only: a subclass
#: (an ``IntEnum``, a ``str`` subclass) may hash, compare or coerce unlike
#: its base, and JSON lists and dicts are unhashable.
_MEMO_VALUE_TYPES = frozenset((str, int, bool, type(None)))


class _NameMemo(NamedTuple):
    """What one converter has resolved under one registry generation."""

    generation: int
    #: Native name -> the shared frozen Operation.
    operations: Dict[str, Operation]
    #: Native name -> the validated, interned pair of its Property.
    properties: Dict[str, Tuple[PropertyCategory, str]]
    #: ``_value_key(native name, raw value)`` -> the shared frozen Property.
    values: Dict[tuple, Property]


class PlanConverter:
    """Base class of the per-DBMS converters."""

    #: Lower-case DBMS name this converter handles.
    dbms: str = "abstract"
    #: Alternative names the hub resolves to this converter.
    aliases: Tuple[str, ...] = ()
    #: Native formats this converter can parse.
    formats: tuple = ("text",)

    def __init__(self, registry: Optional[NameRegistry] = None) -> None:
        self.registry = registry or default_registry()
        self._memo = _NameMemo(self.registry.generation, {}, {}, {})

    # -- API -----------------------------------------------------------------------

    def convert(self, serialized: str, format: Optional[str] = None) -> UnifiedPlan:
        """Convert a serialized plan into a :class:`UnifiedPlan`.

        Malformed input raises a :class:`~repro.errors.ReproError` (usually a
        ``ConversionError``), never an untyped crash of the parser.
        """
        chosen = (format or self.formats[0]).lower()
        if chosen not in self.formats:
            raise ConversionError(
                self.dbms, f"format {chosen!r} not supported; available: {self.formats}"
            )
        try:
            plan = self._parse(serialized, chosen)
        except MALFORMED_INPUT_ERRORS as exc:
            raise ConversionError(
                self.dbms, f"malformed {chosen} plan: {type(exc).__name__}: {exc}"
            ) from exc
        plan.source_dbms = self.dbms
        return plan

    def _parse(self, serialized: str, format: str) -> UnifiedPlan:
        raise NotImplementedError

    def cache_key(self, serialized: str, format: Optional[str] = None) -> Tuple[str, str, str]:
        """``(dbms, resolved format, source hash)`` — a hub's cache key."""
        chosen = (format or self.formats[0]).lower()
        return (self.dbms, chosen, source_hash(serialized))

    # -- helpers --------------------------------------------------------------------

    def _names(self) -> _NameMemo:
        """The current registry generation's name memo.

        Swapped whole when a registration has moved the generation on, so a
        thread still filling the old dicts cannot leak a resolution made
        under the old mappings into the new ones.
        """
        memo = self._memo
        if memo.generation != self.registry.generation:
            memo = self._memo = _NameMemo(self.registry.generation, {}, {}, {})
        return memo

    def operation(self, native_name: str) -> Operation:
        """Map a native operation name to a unified operation (one shared
        frozen instance per name: resolved, validated and interned once)."""
        memo = self._names().operations
        operation = memo.get(native_name)
        if operation is None:
            category, unified = self.registry.resolve_operation(self.dbms, native_name)
            operation = Operation(category, unified)
            if len(memo) < _NAME_MEMO_LIMIT:
                memo[native_name] = operation
        return operation

    def make_node(self, native_name: str) -> PlanNode:
        """Create a plan node for a native operation name."""
        return PlanNode(self.operation(native_name))

    def property(self, native_name: str, value: object) -> Property:
        """Map a native property name/value to a unified property.

        One shared frozen instance per distinct ``(name, raw value)``: a
        repeat skips coercion, validation and construction.  Otherwise the
        first of a name is built normally and its validated pair serves the
        rest.
        """
        memo = self._names()
        key = _value_key(native_name, value)
        if key is not None:
            prop = memo.values.get(key)
            if prop is not None:
                return prop
        resolved = memo.properties.get(native_name)
        if resolved is not None:
            prop = Property.trusted(resolved[0], resolved[1], _coerce_value(value))
        else:
            category, unified = self.registry.resolve_property(self.dbms, native_name)
            prop = Property(category, unified, _coerce_value(value))
            if len(memo.properties) < _NAME_MEMO_LIMIT:
                memo.properties[native_name] = (prop.category, prop.identifier)
        if key is not None and len(memo.values) < _NAME_MEMO_LIMIT:
            memo.values[key] = prop
        return prop


def _value_key(native_name: str, value: object) -> Optional[tuple]:
    """The property memo's key for a raw value, or None to bypass the memo.

    Two raw values may share a key only if they coerce to the same value
    token.  As dict keys ``True == 1 == 1.0`` and ``0.0 == -0.0``, so the
    exact type is part of the key and a float is keyed by its ``repr`` (its
    value token's text); NaN never equals itself, so it is not memoised.
    """
    kind = value.__class__
    if kind is float:
        return None if value != value else (native_name, kind, repr(value))
    if kind in _MEMO_VALUE_TYPES:
        return (native_name, kind, value)
    return None


def _coerce_value(value: object) -> object:
    """Coerce arbitrary parsed values into the grammar's value domain."""
    if value is None or isinstance(value, (bool, int, float)):
        return value
    text = str(value)
    stripped = text.strip()
    try:
        if stripped and stripped.lstrip("-").replace(".", "", 1).isdigit():
            return float(text) if "." in text else int(text)
    except ValueError:
        pass
    return text


class IndentedTree:
    """The one reader of indentation-nested plan text (one node per line).

    :meth:`add` hangs a node under the nearest earlier node of smaller
    depth.  The first node is the root; a later node with no smaller-depth
    node before it stays out of the tree, and so does its subtree.
    """

    def __init__(self) -> None:
        self.root: Optional[PlanNode] = None
        self._open: List[Tuple[int, PlanNode]] = []

    def add(self, depth: int, node: PlanNode) -> None:
        """Place *node*, read at indentation *depth*, in the tree."""
        open_nodes = self._open
        while open_nodes and open_nodes[-1][0] >= depth:
            open_nodes.pop()
        if open_nodes:
            open_nodes[-1][1].children.append(node)
        elif self.root is None:
            self.root = node
        open_nodes.append((depth, node))


def document_tree(
    document: Any,
    make_node: Callable[[Any], PlanNode],
    children_of: Callable[[Any], Iterable[Any]],
) -> PlanNode:
    """The one reader of nested plan documents (JSON objects, XML elements).

    *make_node* builds the node of one document item and *children_of*
    lists the item's child items.  Items are read in pre-order with an
    explicit stack, so no document is too deep to read.
    """
    root: Optional[PlanNode] = None
    stack: List[Tuple[Optional[PlanNode], Any]] = [(None, document)]
    while stack:
        parent, item = stack.pop()
        node = make_node(item)
        if parent is None:
            root = node
        else:
            parent.children.append(node)
        stack.extend((node, child) for child in reversed(list(children_of(item))))
    return root


def read_ascii_table(serialized: str, indented: Tuple[str, ...] = ()) -> List[Dict[str, str]]:
    """The one reader of ASCII-table plans (MySQL, SQL Server, TiDB).

    Only ``|``-delimited lines count.  The first names the columns; every
    later one with as many cells becomes a dict of column -> stripped cell.
    A column named in *indented* keeps its indentation and loses only one
    space of padding on the left: TiDB's ``id`` column nests operators by it.
    """
    lines = [line.strip() for line in serialized.splitlines() if line.strip().startswith("|")]
    if not lines:
        return []
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    kept = [(position, column) for position, column in enumerate(header) if column in indented]
    rows = []
    for line in lines[1:]:
        cells = line.strip("|").split("|")
        if len(cells) == len(header):
            row = dict(zip(header, [cell.strip() for cell in cells]))
            for position, column in kept:
                cell = cells[position]
                row[column] = (cell[1:] if cell.startswith(" ") else cell).rstrip()
            rows.append(row)
    return rows


def source_hash(serialized: str) -> str:
    """Hash a raw serialized plan for use as a conversion-cache key."""
    return hashlib.sha1(serialized.encode("utf-8")).hexdigest()


class ConverterHub:
    """Registry, instance pool, and conversion cache for all converters.

    The hub is the conversion pipeline's converter layer: dialect converter
    classes register into a shared class registry (the
    :func:`register_converter` decorator), and each hub instance lazily
    instantiates one converter per DBMS against its name registry and caches
    conversions by ``(dbms, format, source-hash)``.  All methods are
    thread-safe, so one hub serves the ingestion service's worker threads;
    the cache is filled only by conversions the hub itself ran.
    """

    #: Class-level registry shared by every hub, populated at import time by
    #: the :func:`register_converter` decorator on the dialect converters.
    _classes: Dict[str, Type[PlanConverter]] = {}
    _alias_names: Dict[str, str] = {}

    def __init__(
        self,
        registry: Optional[NameRegistry] = None,
        cache_size: int = 1024,
    ) -> None:
        self._registry = registry
        self._instances: Dict[str, PlanConverter] = {}
        self._cache = LRUCache(maxsize=cache_size)
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------------

    @classmethod
    def register(cls, converter_class: Type[PlanConverter]) -> Type[PlanConverter]:
        """Register *converter_class* (and its aliases) for every hub."""
        name = converter_class.dbms.strip().lower()
        cls._classes[name] = converter_class
        # A converter registered under a name another converter aliased
        # must be reachable under that name: the real name wins.
        cls._alias_names.pop(name, None)
        for alias in getattr(converter_class, "aliases", ()):
            alias_key = alias.strip().lower()
            if alias_key not in cls._classes:
                cls._alias_names[alias_key] = name
        return converter_class

    @classmethod
    def resolve_name(cls, dbms: str) -> str:
        """Resolve *dbms* (canonical name or alias) to the canonical name.

        Registered converter names take precedence over aliases, so an
        extension converter named e.g. ``spark`` is reachable even though a
        built-in declares that alias.
        """
        key = dbms.strip().lower()
        if key not in cls._classes:
            key = cls._alias_names.get(key, key)
        if key not in cls._classes:
            raise ConversionError(
                dbms, f"no converter registered; available: {sorted(cls._classes)}"
            )
        return key

    @classmethod
    def dbms_names(cls) -> List[str]:
        """Canonical DBMS names with a registered converter."""
        return sorted(cls._classes)

    # -- conversion ------------------------------------------------------------

    def converter(self, dbms: str) -> PlanConverter:
        """Return the hub's (shared) converter instance for *dbms*."""
        name = self.resolve_name(dbms)
        # Lock-free on a hit; the lock only makes instantiation happen once.
        instance = self._instances.get(name)
        if instance is None:
            with self._lock:
                instance = self._instances.get(name)
                if instance is None:
                    instance = self._classes[name](self._registry)
                    self._instances[name] = instance
        return instance

    def convert(
        self,
        dbms: str,
        serialized: str,
        format: Optional[str] = None,
        use_cache: bool = True,
    ) -> UnifiedPlan:
        """Convert *serialized* through the cache.

        The cache key is ``(canonical dbms, resolved format, sha1(source))``,
        so syntactically identical raw plans are parsed exactly once per hub
        regardless of how often they are ingested.
        """
        if not use_cache:
            converter = self.converter(dbms)
            chosen = (format or converter.formats[0]).lower()
            return converter.convert(serialized, chosen)
        return self.convert_traced(dbms, serialized, format)[0]

    def convert_traced(
        self,
        dbms: str,
        serialized: str,
        format: Optional[str] = None,
        key: Optional[Tuple[str, str, str]] = None,
    ) -> Tuple[UnifiedPlan, bool]:
        """Convert through the cache, reporting whether a parse actually ran.

        The hit-or-parse decision is made on the single cache lookup, so the
        returned flag is accurate even when worker threads share the hub
        (a separate probe-then-convert sequence could misreport under
        concurrent eviction).  Callers that already computed
        :meth:`cache_key` may pass it via *key* to skip re-hashing the
        source text.
        """
        converter = self.converter(dbms)
        if key is None:
            key = converter.cache_key(serialized, format)
        plan = self._cache.get(key)
        if plan is not None:
            return plan, False
        plan = converter.convert(serialized, key[1])  # the resolved format
        # Pre-compute the fingerprint while we hold the only reference, so
        # every consumer of the shared cached plan gets O(1) identity.
        plan.fingerprint()
        self._cache.put(key, plan)
        return plan, True

    def cache_key(
        self, dbms: str, serialized: str, format: Optional[str] = None
    ) -> Tuple[str, str, str]:
        """The conversion-cache key the hub would use for this source."""
        return self.converter(dbms).cache_key(serialized, format)

    def is_cached(
        self, dbms: str, serialized: str, format: Optional[str] = None
    ) -> bool:
        """Whether converting this source would be served from the cache.

        Does not count as a cache lookup in the statistics.
        """
        return self.cache_key(dbms, serialized, format) in self._cache

    def contains_key(self, key: Tuple[str, str, str]) -> bool:
        """Like :meth:`is_cached` for callers that already hold the key."""
        return key in self._cache

    # -- introspection ---------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Live hit/miss/eviction counters of the conversion cache."""
        return self._cache.stats


#: Lazily created hub shared by ``converter_for`` and the pipeline defaults.
_DEFAULT_HUB: Optional[ConverterHub] = None
_DEFAULT_HUB_LOCK = threading.Lock()


def default_hub() -> ConverterHub:
    """Return the process-wide default :class:`ConverterHub`."""
    global _DEFAULT_HUB
    with _DEFAULT_HUB_LOCK:
        if _DEFAULT_HUB is None:
            _DEFAULT_HUB = ConverterHub()
        return _DEFAULT_HUB


def register_converter(converter_class: Type[PlanConverter]) -> Type[PlanConverter]:
    """Class decorator registering a converter for its DBMS (and aliases)."""
    return ConverterHub.register(converter_class)


def converter_for(dbms: str, registry: Optional[NameRegistry] = None) -> PlanConverter:
    """Instantiate the converter for *dbms* (accepts registered aliases).

    With the default *registry* this returns the default hub's shared
    instance; passing an explicit registry constructs a fresh converter.
    """
    if registry is None:
        return default_hub().converter(dbms)
    name = ConverterHub.resolve_name(dbms)
    return ConverterHub._classes[name](registry)


def available_converters() -> List[str]:
    """Return the DBMS names that have registered converters."""
    return ConverterHub.dbms_names()
