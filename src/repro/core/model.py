"""Data model of the unified query plan representation (UPlan).

The model follows the EBNF grammar of Listing 2 in the paper:

.. code-block:: text

    plan       ::= ( tree )? properties
    tree       ::= node ( '--children-->' '{' tree (',' tree)* '}' )?
    node       ::= operation properties
    operation  ::= 'Operation' ':' operation_category '->' operation_identifier
    properties ::= ( property ( ',' property )* )?
    property   ::= property_category '->' property_identifier ':' value

A :class:`UnifiedPlan` therefore consists of an optional tree of
:class:`PlanNode` objects — each holding one :class:`Operation` and zero or
more :class:`Property` objects — plus a list of plan-associated properties.
Values are restricted to strings, numbers, booleans and ``null`` exactly as the
grammar specifies.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.categories import (
    OPERATION_CATEGORY_ORDER,
    PROPERTY_CATEGORY_ORDER,
    OperationCategory,
    PropertyCategory,
)
from repro.core.naming import intern_identifier
from repro.errors import PlanValidationError, UnifiedPlanError

#: The value domain permitted by the grammar (``value`` production).
PropertyValue = Any  # str | int | float | bool | None

#: Errors that decoding input of the wrong shape raises (a JSON scalar where
#: an object belongs, a malformed number, a missing key, a document nested
#: past the parser's stack): :meth:`UnifiedPlan.from_dict` reports them as a
#: ``UnifiedPlanError``, :meth:`PlanConverter.convert` as a ``ConversionError``.
MALFORMED_INPUT_ERRORS = (
    ValueError, TypeError, AttributeError, KeyError, IndexError, RecursionError,
)

#: An ASCII letter, then words of letters / digits / ``_`` joined by single
#: spaces.  Used with ``fullmatch`` (``$`` would admit a trailing newline).
_KEYWORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?: [A-Za-z0-9_]+)*")


def is_valid_keyword(identifier: str) -> bool:
    """Return whether *identifier* conforms to the ``keyword`` production.

    The grammar defines ``keyword ::= letter (letter | digit | '_')*``.  The
    unified naming convention additionally allows *single* spaces between
    words (e.g. ``Full Table Scan``), which we treat as part of the keyword
    for readability; serializers normalise them when a strict keyword is
    required.  Leading, trailing, and consecutive spaces are rejected: they
    are invisible in every serialized form, so admitting them would let two
    visually identical identifiers (``"Scan"`` vs ``"Scan  "``) denote
    different operations.
    """
    return bool(identifier) and _KEYWORD.fullmatch(identifier) is not None


def is_valid_value(value: PropertyValue) -> bool:
    """Return whether *value* is within the grammar's value domain."""
    return value is None or isinstance(value, (str, int, float, bool))


# ---------------------------------------------------------------------------
# Canonical ordering and fingerprinting
# ---------------------------------------------------------------------------

_PROPERTY_CATEGORY_RANK = {
    category: rank for rank, category in enumerate(PROPERTY_CATEGORY_ORDER)
}

#: Cache key under which the identity fingerprint is stored on nodes/plans.
#: :mod:`repro.core.compare` stores its filtered structural fingerprints in
#: the same per-node cache under its own keys.
FINGERPRINT_IDENTITY = "identity"


def value_token(value: PropertyValue) -> str:
    """Render *value* as a type-tagged token for canonical ordering/hashing.

    The tag keeps values of different types distinct even when their textual
    forms coincide (the string ``"5"`` versus the integer ``5``), so the
    fingerprint is injective over the grammar's value domain.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "b:true" if value else "b:false"
    if isinstance(value, (int, float)):
        return f"n:{value!r}"
    return f"s:{value}"


def canonical_property_key(prop: "Property") -> Tuple[int, str, str]:
    """The canonical sort key: grammar category order, then name, then value."""
    return (prop._canonical or _canonical_line(prop))[0]


def canonical_properties(properties: Iterable["Property"]) -> List["Property"]:
    """Return *properties* in canonical order (category rank, name, value)."""
    return sorted(properties, key=canonical_property_key)


#: ``"<category>-><identifier>=<value token>"`` per category rank.
_PROPERTY_LINE_FORMATS = [
    category.value + "->%s=%s" for category in PROPERTY_CATEGORY_ORDER
]

_FRAME_HEADER = struct.Struct(">BI").pack


def frame_lines(lines: Iterable[str]) -> bytes:
    """Length-frame each line (``\\x01``, 4-byte big-endian length, UTF-8).

    Length-prefixing keeps the digests injective: without it, a property
    *value* containing a marker byte could forge component boundaries and
    make two distinct plans hash alike.
    """
    parts: List[bytes] = []
    for line in lines:
        encoded = line.encode("utf-8")
        parts.append(_FRAME_HEADER(1, len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def _canonical_line(prop: "Property") -> Tuple[Tuple[int, str, str], bytes]:
    """``(canonical sort key, framed line)`` of *prop*, cached on it.

    The key *is* the line's content, so equal keys mean equal lines and a
    list of these pairs sorts into canonical order.  Converters share one
    frozen Property per distinct value, so each line is built once per
    value rather than once per node.
    """
    rank = _PROPERTY_CATEGORY_RANK[prop.category]
    token = value_token(prop.value)
    encoded = (_PROPERTY_LINE_FORMATS[rank] % (prop.identifier, token)).encode("utf-8")
    cached = ((rank, prop.identifier, token), _FRAME_HEADER(1, len(encoded)) + encoded)
    object.__setattr__(prop, "_canonical", cached)
    return cached


def _sorted_lines(properties: Iterable["Property"]) -> List[bytes]:
    """The framed property lines in canonical order."""
    pairs = [prop._canonical or _canonical_line(prop) for prop in properties]
    pairs.sort()
    return [line for _, line in pairs]


def _framed_properties(properties: Iterable["Property"]) -> bytes:
    """The canonical-order property lines, framed, as one block of hash input
    (byte for byte what :func:`frame_lines` makes of the rendered lines)."""
    return b"".join(_sorted_lines(properties))


def _identity_bytes(node: "PlanNode") -> bytes:
    # Keywords cannot contain the separator (is_valid_keyword), so the
    # operation needs no framing; property lines embed arbitrary values.
    operation = node.operation
    head = operation._identity_head
    if head is None:
        head = f"{operation.category.value}\x00{operation.identifier}".encode("utf-8")
        object.__setattr__(operation, "_identity_head", head)
    lines = _sorted_lines(node.properties)
    lines.insert(0, head)
    return b"".join(lines)


#: One event of :func:`walk_tree`: ``(node, depth, node_id, parent_id, last,
#: exit)`` — the root is at depth 0, has no parent (``None``) and counts as
#: last; ``node_id`` is the pre-order number, from 1 at the root.
TreeStep = Tuple[Any, int, int, Optional[int], bool, bool]


def walk_tree(root: Any) -> Iterator[TreeStep]:
    """Walk any tree whose nodes list their ``children``, without recursion.

    Each node yields an entry step (``exit`` false) in pre-order and an exit
    step after its whole subtree, for writers that emit something after a
    subtree (a DOT edge) and for post-order.  ``last``: the node is its
    parent's last child.  A ``None`` root (a tree-less plan) yields nothing.
    Steps are plain tuples, the cheapest to build.
    """
    stack: List[tuple] = [] if root is None else [(root, 0, None, True)]
    count = 0
    while stack:
        item = stack.pop()
        if len(item) == 6:
            yield item
            continue
        node, depth, parent_id, last = item
        count += 1
        yield node, depth, count, parent_id, last, False
        stack.append((node, depth, count, parent_id, last, True))
        children = node.children
        if children:
            final = len(children) - 1
            stack.extend(
                [(children[i], depth + 1, count, i == final) for i in range(final, -1, -1)]
            )


def fold_tree(
    root: Any, children_of: Callable[[Any], Any], build: Callable[[Any, List[Any]], Any]
) -> Any:
    """Fold a tree bottom-up without recursion.

    ``build(item, results)`` runs for each item after its children, with
    their results in child order.  Unlike :func:`walk_tree`, *children_of*
    reads an item's children, so dict payloads fold as well as nodes.
    """
    results: List[Any] = []
    stack: List[Tuple[Any, Any]] = [(root, None)]
    while stack:
        item, children = stack.pop()
        if children is None:
            children = children_of(item)
            if children:
                stack.append((item, children))
                stack.extend([(child, None) for child in reversed(children)])
                continue
            results.append(build(item, []))
        else:
            split = len(results) - len(children)
            value = build(item, results[split:])
            del results[split:]
            results.append(value)
    return results[0]


def _node_children(node: "PlanNode") -> List["PlanNode"]:
    return node.children


def merkle_fingerprint(
    root: "PlanNode", key: str, node_bytes: Callable[["PlanNode"], bytes]
) -> str:
    """Cache a *key* digest on every node under *root* lacking one; return root's.

    A node's digest is one ``blake2b`` call over one buffer: *node_bytes* of
    the node, then ``\\x02`` and the (fixed-width hex) digest of each child.
    The walk is an iterative post-order: fingerprints sit on the campaign hot
    path (one per explained query), and the recursive form paid a Python
    frame per node.
    """
    stack = [root]
    pending: List["PlanNode"] = []
    while stack:
        node = stack.pop()
        if key in node._fp_cache:
            continue
        pending.append(node)
        stack.extend(node.children)
    blake2b = hashlib.blake2b
    for node in reversed(pending):  # children always precede parents
        cache = node._fp_cache
        if key in cache:
            continue
        children = "".join(["\x02" + child._fp_cache[key] for child in node.children])
        cache[key] = blake2b(
            node_bytes(node) + children.encode("ascii"), digest_size=16
        ).hexdigest()
    return root._fp_cache[key]


class _ObservedList(list):
    """A list that clears its owner's fingerprint cache on every mutation.

    ``PlanNode.properties``/``children`` (and ``UnifiedPlan.properties``) are
    stored in observed lists so that in-place mutation — ``append``, slice
    assignment, ``sort`` — invalidates the *owning* node's cached
    fingerprints.  Caches of already-fingerprinted ancestors cannot be
    reached from here (nodes hold no parent pointers); mutating below a
    fingerprinted ancestor requires `invalidate_fingerprints` on it.

    The list holds its owner's cache dict, not the owner: a back-reference
    would put every node in a reference cycle, so a discarded plan would
    wait for a full cyclic collection instead of being freed at once.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: Dict[str, Any], iterable=()) -> None:
        super().__init__(iterable)
        self._cache = cache

    def _touch(self) -> None:
        if self._cache:
            self._cache.clear()

    def append(self, item):
        # Inlined: converters append every property and child through here.
        list.append(self, item)
        if self._cache:
            self._cache.clear()

    def extend(self, iterable):
        super().extend(iterable)
        self._touch()

    def insert(self, index, item):
        super().insert(index, item)
        self._touch()

    def remove(self, item):
        super().remove(item)
        self._touch()

    def pop(self, index=-1):
        item = super().pop(index)
        self._touch()
        return item

    def clear(self):
        super().clear()
        self._touch()

    def sort(self, **kwargs):
        super().sort(**kwargs)
        self._touch()

    def reverse(self):
        super().reverse()
        self._touch()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._touch()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, iterable):
        result = super().__iadd__(iterable)
        self._touch()
        return result

    def __imul__(self, count):
        result = super().__imul__(count)
        self._touch()
        return result

    def __reduce__(self):
        # Pickle/deepcopy as a plain list; the owner re-wraps on assignment.
        return (list, (list(self),))


@dataclass(frozen=True)
class Operation:
    """A concrete step executed by a DBMS, in unified naming.

    Parameters
    ----------
    category:
        One of the seven :class:`OperationCategory` members.
    identifier:
        The unified operation name, e.g. ``"Full Table Scan"``.
    """

    category: OperationCategory
    identifier: str

    #: Hash-input heads cached on first use (not fields, so ``==``, ``hash``,
    #: ``repr`` and pickling ignore them): ``category\x00identifier`` for
    #: the identity fingerprint, and its unstable-suffix-stripped twin,
    #: which :mod:`repro.core.compare` fills for the structural ones.
    _identity_head = None
    _structural_head = None

    def __post_init__(self) -> None:
        if not isinstance(self.category, OperationCategory):
            raise PlanValidationError(
                f"operation category must be an OperationCategory, got {self.category!r}"
            )
        if not is_valid_keyword(self.identifier):
            raise PlanValidationError(
                f"invalid operation identifier: {self.identifier!r}"
            )
        # Intern so repeated names across plans share one string object;
        # equality then hits the pointer fast path (see core.naming).
        object.__setattr__(self, "identifier", intern_identifier(self.identifier))

    def __reduce__(self):
        return (self.__class__, (self.category, self.identifier))

    def __str__(self) -> str:
        return f"{self.category.value}->{self.identifier}"

    def to_dict(self) -> Dict[str, str]:
        """Return a JSON-compatible dictionary form."""
        return {"category": self.category.value, "identifier": self.identifier}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Operation":
        """Reconstruct an operation from :meth:`to_dict` output."""
        return cls(
            category=OperationCategory.from_name(data["category"]),
            identifier=data["identifier"],
        )


@dataclass(frozen=True)
class Property:
    """A property associated with an operation or with the plan as a whole.

    Parameters
    ----------
    category:
        One of the four :class:`PropertyCategory` members.
    identifier:
        The unified property name, e.g. ``"Estimated Rows"``.
    value:
        A string, number, boolean, or ``None``.
    """

    category: PropertyCategory
    identifier: str
    value: PropertyValue = None

    #: ``(canonical sort key, framed line)`` cached the first time the
    #: property is fingerprinted (see ``_canonical_line``).  Not a field:
    #: ``==``, ``hash``, ``repr``, ``to_dict`` and pickling ignore it.
    _canonical = None

    def __post_init__(self) -> None:
        if not isinstance(self.category, PropertyCategory):
            raise PlanValidationError(
                f"property category must be a PropertyCategory, got {self.category!r}"
            )
        if not is_valid_keyword(self.identifier):
            raise PlanValidationError(
                f"invalid property identifier: {self.identifier!r}"
            )
        if not is_valid_value(self.value):
            raise PlanValidationError(
                f"invalid property value for {self.identifier!r}: {self.value!r}"
            )
        object.__setattr__(self, "identifier", intern_identifier(self.identifier))

    @classmethod
    def trusted(cls, category: PropertyCategory, identifier: str, value: PropertyValue) -> "Property":
        """Build a property from the ``(category, identifier)`` of a normally
        constructed one, which validated and interned the pair; only the
        value domain is checked again (converters memoise the pair per name).
        """
        if not is_valid_value(value):
            raise PlanValidationError(
                f"invalid property value for {identifier!r}: {value!r}"
            )
        prop = object.__new__(cls)
        # object.__setattr__, not prop.__dict__[...]: writing through __dict__
        # takes the instance off CPython's key-sharing dicts (+1 MB peak RSS).
        object.__setattr__(prop, "category", category)
        object.__setattr__(prop, "identifier", identifier)
        object.__setattr__(prop, "value", value)
        return prop

    def __reduce__(self):
        return (self.__class__, (self.category, self.identifier, self.value))

    def __str__(self) -> str:
        return f"{self.category.value}->{self.identifier}: {self.value!r}"

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-compatible dictionary form."""
        return {
            "category": self.category.value,
            "identifier": self.identifier,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Property":
        """Reconstruct a property from :meth:`to_dict` output."""
        return cls(
            category=PropertyCategory.from_name(data["category"]),
            identifier=data["identifier"],
            value=data.get("value"),
        )


@dataclass(init=False)
class PlanNode:
    """A node of the unified plan tree: one operation plus its properties.

    Nodes cache their Merkle fingerprints (see :meth:`fingerprint`) after
    first computation.  The builder-style mutators below invalidate the
    node's own cache; mutating ``properties``/``children`` directly, or
    mutating a subtree after an *ancestor* was fingerprinted, requires
    calling :meth:`invalidate_fingerprints` on the outermost modified tree.
    The pipeline layer treats plans as frozen once ingested, which makes the
    cache sound there by construction.
    """

    operation: Operation
    properties: List[Property] = field(default_factory=list)
    children: List["PlanNode"] = field(default_factory=list)
    #: Per-node fingerprint cache, keyed by fingerprint mode.
    _fp_cache: Dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __init__(
        self,
        operation: Operation,
        properties: Iterable[Property] = (),
        children: Iterable["PlanNode"] = (),
        _fp_cache: Optional[Dict[str, str]] = None,
    ) -> None:
        # Built directly rather than through __setattr__ (a node is built
        # per operator of every converted plan); same attribute order.
        cache = {} if _fp_cache is None else _fp_cache
        object.__setattr__(self, "operation", operation)
        object.__setattr__(self, "properties", _ObservedList(cache, properties))
        object.__setattr__(self, "children", _ObservedList(cache, children))
        object.__setattr__(self, "_fp_cache", cache)

    def __setattr__(self, name: str, value: Any) -> None:
        cache = self._fp_cache
        if name == "_fp_cache":
            self.properties._cache = self.children._cache = value
        elif name in ("properties", "children") and not (
            isinstance(value, _ObservedList) and value._cache is cache
        ):
            value = _ObservedList(cache, value)
        object.__setattr__(self, name, value)
        if name != "_fp_cache" and cache:
            cache.clear()

    def __getstate__(self):
        # Pickle/deepcopy as plain lists and without cached fingerprints:
        # the restored copy's lists would otherwise lose their invalidation
        # hook while the stale cache survives.
        return {
            "operation": self.operation,
            "properties": list(self.properties),
            "children": list(self.children),
        }

    def __setstate__(self, state):
        PlanNode.__init__(self, **state)  # re-wraps the lists

    # -- construction helpers -------------------------------------------------

    def add_property(
        self,
        category: PropertyCategory,
        identifier: str,
        value: PropertyValue = None,
    ) -> "PlanNode":
        """Append a property and return ``self`` for chaining."""
        self.properties.append(Property(category, identifier, value))
        self._fp_cache.clear()
        return self

    def add_child(self, child: "PlanNode") -> "PlanNode":
        """Append a child node and return ``self`` for chaining."""
        self.children.append(child)
        self._fp_cache.clear()
        return self

    # -- queries ---------------------------------------------------------------

    def property_value(self, identifier: str, default: PropertyValue = None) -> PropertyValue:
        """Return the value of the first property named *identifier*."""
        for prop in self.properties:
            if prop.identifier == identifier:
                return prop.value
        return default

    def properties_in(self, category: PropertyCategory) -> List[Property]:
        """Return the node's properties belonging to *category*."""
        return [p for p in self.properties if p.category is category]

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_postorder(self) -> Iterator["PlanNode"]:
        """Yield all descendants and this node in post-order."""
        for node, _, _, _, _, exit in walk_tree(self):
            if exit:
                yield node

    def depth(self) -> int:
        """Return the height of the subtree rooted at this node (leaf = 1)."""
        return 1 + max(step[1] for step in walk_tree(self))

    def size(self) -> int:
        """Return the number of nodes in the subtree rooted at this node."""
        return sum(1 for _ in self.walk())

    def find(self, predicate: Callable[["PlanNode"], bool]) -> List["PlanNode"]:
        """Return all nodes in the subtree satisfying *predicate*."""
        return [node for node in self.walk() if predicate(node)]

    def find_operations(self, identifier: str) -> List["PlanNode"]:
        """Return all nodes whose operation identifier equals *identifier*."""
        return self.find(lambda node: node.operation.identifier == identifier)

    def count_categories(self) -> Dict[OperationCategory, int]:
        """Count operations per category in the subtree (Table VI metric)."""
        counts = {category: 0 for category in OPERATION_CATEGORY_ORDER}
        for node in self.walk():
            counts[node.operation.category] += 1
        return counts

    # -- canonical form and fingerprinting --------------------------------------

    def fingerprint(self) -> str:
        """Return the cached Merkle identity fingerprint of the subtree.

        The fingerprint hashes the operation, the properties in canonical
        order, and the children's fingerprints, bottom-up.  Two subtrees have
        the same fingerprint iff they are identical up to property order, so
        the digest is stable under :meth:`canonicalize` and under every
        serialization round-trip.  It depends only on plan content — no
        process-specific state — so it is stable across processes and runs.
        """
        cached = self._fp_cache.get(FINGERPRINT_IDENTITY)
        if cached is not None:
            return cached
        return merkle_fingerprint(self, FINGERPRINT_IDENTITY, _identity_bytes)

    def invalidate_fingerprints(self) -> None:
        """Clear every cached fingerprint in the subtree (after mutation)."""
        for node in self.walk():
            node._fp_cache.clear()

    def canonicalize(self, sort_children: bool = False) -> "PlanNode":
        """Return a copy of the subtree in canonical form.

        Properties are ordered by the grammar's category order, then by
        identifier and value.  Child order is preserved by default because it
        is semantically significant (e.g. build vs. probe side of a join);
        ``sort_children=True`` additionally orders children by fingerprint,
        which yields an order-insensitive normal form for symmetric
        comparisons.  The canonical copy has the same :meth:`fingerprint` as
        the original (unless children were re-ordered).
        """

        def build(node: "PlanNode", children: List["PlanNode"]) -> "PlanNode":
            if sort_children:
                children.sort(key=lambda child: child.fingerprint())
            return PlanNode(
                operation=node.operation,
                properties=canonical_properties(node.properties),
                children=children,
            )

        return fold_tree(self, _node_children, build)

    def is_canonical(self) -> bool:
        """Whether every node's properties are already canonically ordered."""
        for node in self.walk():
            keys = [canonical_property_key(prop) for prop in node.properties]
            if keys != sorted(keys):
                return False
        return True

    def __hash__(self) -> int:
        # Deep-equal nodes always share a fingerprint, so hashing the
        # fingerprint is consistent with the dataclass-generated __eq__.
        return hash(self.fingerprint())

    # -- serialization helpers --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-compatible dictionary form of the subtree."""
        return fold_tree(self, _node_children, lambda node, children: {
            "operation": node.operation.to_dict(),
            "properties": [prop.to_dict() for prop in node.properties],
            "children": children,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanNode":
        """Reconstruct a subtree from :meth:`to_dict` output."""
        return fold_tree(
            data,
            lambda item: item.get("children", []),
            lambda item, children: cls(
                operation=Operation.from_dict(item["operation"]),
                properties=[Property.from_dict(p) for p in item.get("properties", [])],
                children=children,
            ),
        )

    def copy(self) -> "PlanNode":
        """Return a deep copy of the subtree (cached fingerprints carry over)."""
        return fold_tree(self, _node_children, lambda node, children: PlanNode(
            operation=node.operation,
            properties=list(node.properties),
            children=children,
            _fp_cache=dict(node._fp_cache),
        ))

    def __str__(self) -> str:
        return f"PlanNode({self.operation}, {len(self.properties)} props, {len(self.children)} children)"


@dataclass(init=False)
class UnifiedPlan:
    """A complete unified query plan: an optional tree plus plan properties.

    The paper's grammar permits a plan without a tree — InfluxDB, for example,
    exposes only a list of plan-associated properties — hence ``root`` may be
    ``None``.
    """

    root: Optional[PlanNode] = None
    properties: List[Property] = field(default_factory=list)
    #: Name of the DBMS the plan was converted from ("" if hand-built).
    source_dbms: str = ""
    #: The query the plan belongs to, when known.
    query: str = ""
    #: Plan-level cache for content-derived values (fingerprints, embeddings),
    #: keyed by derivation mode.  Each entry stores ``(root_digest, value)``
    #: so the cached value self-validates against the tree's current digest
    #: (see :meth:`fingerprint` and :meth:`content_cache_get`).
    _fp_cache: Dict[str, Tuple[str, Any]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __init__(
        self,
        root: Optional[PlanNode] = None,
        properties: Iterable[Property] = (),
        source_dbms: str = "",
        query: str = "",
        _fp_cache: Optional[Dict[str, Tuple[str, Any]]] = None,
    ) -> None:
        cache = {} if _fp_cache is None else _fp_cache
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "properties", _ObservedList(cache, properties))
        object.__setattr__(self, "source_dbms", source_dbms)
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "_fp_cache", cache)

    def __setattr__(self, name: str, value: Any) -> None:
        cache = self._fp_cache
        if name == "_fp_cache":
            self.properties._cache = value
        elif name == "properties" and not (
            isinstance(value, _ObservedList) and value._cache is cache
        ):
            value = _ObservedList(cache, value)
        object.__setattr__(self, name, value)
        # source_dbms/query do not contribute to the fingerprint, so only
        # structural fields invalidate the plan-level cache.
        if name in ("root", "properties") and cache:
            cache.clear()

    def __getstate__(self):
        return {
            "root": self.root,
            "properties": list(self.properties),
            "source_dbms": self.source_dbms,
            "query": self.query,
        }

    def __setstate__(self, state):
        UnifiedPlan.__init__(self, **state)  # re-wraps the list

    # -- construction helpers -------------------------------------------------

    def add_property(
        self,
        category: PropertyCategory,
        identifier: str,
        value: PropertyValue = None,
    ) -> "UnifiedPlan":
        """Append a plan-associated property and return ``self``."""
        self.properties.append(Property(category, identifier, value))
        self._fp_cache.clear()
        return self

    # -- queries ---------------------------------------------------------------

    def nodes(self) -> List[PlanNode]:
        """Return every node of the tree in pre-order (empty if no tree)."""
        if self.root is None:
            return []
        return list(self.root.walk())

    def operations(self) -> List[Operation]:
        """Return every operation in the tree in pre-order."""
        return [node.operation for node in self.nodes()]

    def node_count(self) -> int:
        """Return the number of operations in the plan (0 for tree-less plans)."""
        return 0 if self.root is None else self.root.size()

    def depth(self) -> int:
        """Return the height of the plan tree (0 for tree-less plans)."""
        return 0 if self.root is None else self.root.depth()

    def count_categories(self) -> Dict[OperationCategory, int]:
        """Count operations per category — the Table VI / VII metric."""
        if self.root is None:
            return {category: 0 for category in OPERATION_CATEGORY_ORDER}
        return self.root.count_categories()

    def count_property_categories(self) -> Dict[PropertyCategory, int]:
        """Count properties per category across the plan and all nodes."""
        counts = {category: 0 for category in PROPERTY_CATEGORY_ORDER}
        for prop in self.all_properties():
            counts[prop.category] += 1
        return counts

    def all_properties(self) -> List[Property]:
        """Return plan-associated plus every operation-associated property."""
        collected = list(self.properties)
        for node in self.nodes():
            collected.extend(node.properties)
        return collected

    def plan_property_value(
        self, identifier: str, default: PropertyValue = None
    ) -> PropertyValue:
        """Return the value of the first plan-associated property *identifier*."""
        for prop in self.properties:
            if prop.identifier == identifier:
                return prop.value
        return default

    def find_operations(self, identifier: str) -> List[PlanNode]:
        """Return all nodes whose unified operation name equals *identifier*."""
        if self.root is None:
            return []
        return self.root.find_operations(identifier)

    def operations_in(self, category: OperationCategory) -> List[PlanNode]:
        """Return all nodes whose operation belongs to *category*."""
        if self.root is None:
            return []
        return self.root.find(lambda node: node.operation.category is category)

    def leaf_nodes(self) -> List[PlanNode]:
        """Return the leaves of the plan tree (typically Producer operations)."""
        if self.root is None:
            return []
        return self.root.find(lambda node: not node.children)

    # -- canonical form and fingerprinting --------------------------------------

    def fingerprint(self) -> str:
        """Return the cached Merkle identity fingerprint of the whole plan.

        The digest covers the tree (via :meth:`PlanNode.fingerprint`) and the
        plan-associated properties in canonical order.  ``source_dbms`` and
        ``query`` are deliberately excluded: the fingerprint identifies plan
        *content*, so the same plan obtained for different queries — or
        parsed back from any serialization format — deduplicates to one
        entry.  Equality of fingerprints is the O(1) plan-identity check the
        pipeline and the testing applications build on.

        The plan-level cache entry records the root digest it was derived
        from, so it transparently recomputes when the tree was mutated (and
        the mutated node's own cache invalidated) underneath the plan.
        """
        root_digest = "<no-tree>" if self.root is None else self.root.fingerprint()
        cached = self._fp_cache.get(FINGERPRINT_IDENTITY)
        if cached is not None and cached[0] == root_digest:
            return cached[1]
        digest = hashlib.blake2b(
            root_digest.encode("utf-8") + _framed_properties(self.properties),
            digest_size=16,
        ).hexdigest()
        self._fp_cache[FINGERPRINT_IDENTITY] = (root_digest, digest)
        return digest

    def invalidate_fingerprints(self) -> None:
        """Clear every cached fingerprint in the plan (after mutation)."""
        self._fp_cache.clear()
        if self.root is not None:
            self.root.invalidate_fingerprints()

    # -- content-derived value cache --------------------------------------------
    #
    # The fingerprint cache above generalizes to any value derived purely
    # from plan content: each entry stores ``(root_digest, value)`` so the
    # cached value self-validates against the tree's current digest, and
    # plan-level property mutation clears the cache via the _ObservedList
    # hook.  :func:`repro.similarity.embed_plan` memoises plan embeddings
    # through these hooks exactly like :meth:`fingerprint` memoises digests.

    def content_cache_get(self, key: str) -> Optional[Any]:
        """Return the cached content-derived value under *key*, if valid.

        The value is returned only when the tree's current root digest
        matches the digest the value was derived from (mutations of the
        plan's own property list clear the cache directly).
        """
        cached = self._fp_cache.get(key)
        if cached is None:
            return None
        root_digest = "<no-tree>" if self.root is None else self.root.fingerprint()
        return cached[1] if cached[0] == root_digest else None

    def content_cache_put(self, key: str, value: Any) -> None:
        """Cache *value* under *key*, bound to the tree's current digest.

        *value* must be derived purely from plan content (never from
        ``source_dbms``/``query`` or process state), so that the cache —
        which is dropped on pickle like the fingerprint cache — can be
        rebuilt identically in any process.
        """
        root_digest = "<no-tree>" if self.root is None else self.root.fingerprint()
        self._fp_cache[key] = (root_digest, value)

    def canonicalize(self, sort_children: bool = False) -> "UnifiedPlan":
        """Return a copy of the plan in canonical form (see PlanNode)."""
        return UnifiedPlan(
            root=None if self.root is None else self.root.canonicalize(sort_children),
            properties=canonical_properties(self.properties),
            source_dbms=self.source_dbms,
            query=self.query,
        )

    def is_canonical(self) -> bool:
        """Whether plan and node properties are already canonically ordered."""
        keys = [canonical_property_key(prop) for prop in self.properties]
        if keys != sorted(keys):
            return False
        return self.root is None or self.root.is_canonical()

    def __hash__(self) -> int:
        # Deep-equal plans always share a fingerprint (see PlanNode.__hash__).
        return hash(self.fingerprint())

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-compatible dictionary form of the whole plan."""
        return {
            "source_dbms": self.source_dbms,
            "query": self.query,
            "properties": [prop.to_dict() for prop in self.properties],
            "tree": None if self.root is None else self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UnifiedPlan":
        """Reconstruct a plan from :meth:`to_dict` output.

        A malformed payload (an unknown category, a missing key, a value of
        the wrong type) raises a :class:`UnifiedPlanError` chained to the
        underlying error; a payload of any depth reads without recursion.
        """
        try:
            tree = data.get("tree")
            return cls(
                root=None if tree is None else PlanNode.from_dict(tree),
                properties=[Property.from_dict(p) for p in data.get("properties", [])],
                source_dbms=data.get("source_dbms", ""),
                query=data.get("query", ""),
            )
        except MALFORMED_INPUT_ERRORS as exc:
            raise UnifiedPlanError(
                f"malformed plan payload: {type(exc).__name__}: {exc}"
            ) from exc

    def copy(self) -> "UnifiedPlan":
        """Return a deep copy of the plan (cached fingerprints carry over)."""
        return UnifiedPlan(
            root=None if self.root is None else self.root.copy(),
            properties=list(self.properties),
            source_dbms=self.source_dbms,
            query=self.query,
            _fp_cache=dict(self._fp_cache),
        )

    def __str__(self) -> str:
        return (
            f"UnifiedPlan(source={self.source_dbms or 'n/a'}, "
            f"operations={self.node_count()}, plan_properties={len(self.properties)})"
        )


def merge_property_lists(
    *lists: Iterable[Property],
) -> List[Property]:
    """Merge property lists, keeping the first occurrence of each identifier."""
    seen: Dict[Tuple[PropertyCategory, str], Property] = {}
    for properties in lists:
        for prop in properties:
            key = (prop.category, prop.identifier)
            if key not in seen:
                seen[key] = prop
    return list(seen.values())
