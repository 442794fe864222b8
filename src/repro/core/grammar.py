"""The EBNF-defined canonical text form of the unified plan representation.

Listing 2 of the paper defines the unified query plan representation with this
grammar (EBNF):

.. code-block:: text

    plan       ::= ( tree )? properties
    tree       ::= node ( '--children-->' '{' tree (',' tree)* '}' )?
    node       ::= operation properties
    operation  ::= 'Operation' ':' operation_category '->' operation_identifier
    properties ::= ( property ( ',' property )* )?
    property   ::= property_category '->' property_identifier ':' value
    keyword    ::= letter ( letter | digit | '_' )*
    value      ::= string | number | boolean | 'null'

This module provides a faithful serializer (:func:`serialize`) and parser
(:func:`parse`) for that grammar.  Because the grammar's ``keyword`` production
does not admit spaces, identifiers containing spaces (the unified naming
convention uses e.g. ``Full Table Scan``) are encoded with underscores on
serialization and decoded back to spaces on parsing.  The encoding is lossless
for unified names, which never contain literal underscores.  Values are
written and read by :mod:`repro.core.formats.codec`, the text and YAML
forms' codec, so a number may also be ``inf``, ``-inf`` or ``nan``.  Both
directions walk the tree on an explicit stack: a plan of any depth
serializes and parses back.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.formats import codec
from repro.core.model import (
    Operation,
    PlanNode,
    Property,
    PropertyValue,
    UnifiedPlan,
    walk_tree,
)
from repro.errors import GrammarError

_OPERATION_CATEGORIES = {member.value for member in OperationCategory}
_PROPERTY_CATEGORIES = {member.value for member in PropertyCategory}

_CHILDREN_ARROW = "--children-->"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _encode_keyword(identifier: str) -> str:
    """Encode an identifier into a grammar-conformant keyword."""
    return identifier.replace(" ", "_")


def _decode_keyword(keyword: str) -> str:
    """Decode a grammar keyword back into the unified spaced form."""
    return keyword.replace("_", " ")


def _serialize_properties(properties: List[Property]) -> str:
    rendered = [
        f"{prop.category.value}->{_encode_keyword(prop.identifier)}: {codec.write_value(prop.value)}"
        for prop in properties
    ]
    return ", ".join(rendered)


def serialize(plan: UnifiedPlan) -> str:
    """Serialize *plan* into the canonical grammar text form."""
    pieces = []
    for node, _, _, _, last, exit in walk_tree(plan.root):
        if exit:
            pieces.append((" }" if node.children else "") + ("" if last else ", "))
            continue
        pieces.append(
            f"Operation: {node.operation.category.value}->"
            f"{_encode_keyword(node.operation.identifier)}"
        )
        if node.properties:
            pieces.append(" " + _serialize_properties(node.properties))
        if node.children:
            pieces.append(f" {_CHILDREN_ARROW} {{ ")
    if plan.properties:
        separator = " " if pieces else ""
        root = plan.root
        if root is not None and not root.children and not root.properties:
            # A comma ends the bare root, or it would read the plan's first
            # property as its own.
            separator = ", "
        pieces.append(separator + _serialize_properties(plan.properties))
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Token:
    """A lexical token of the grammar text form."""

    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.text!r}, {self.position})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if text.startswith(_CHILDREN_ARROW, index):
            tokens.append(_Token("ARROW_CHILDREN", _CHILDREN_ARROW, index))
            index += len(_CHILDREN_ARROW)
            continue
        if text.startswith("->", index):
            tokens.append(_Token("ARROW", "->", index))
            index += 2
            continue
        if char in "{},:":
            kinds = {"{": "LBRACE", "}": "RBRACE", ",": "COMMA", ":": "COLON"}
            tokens.append(_Token(kinds[char], char, index))
            index += 1
            continue
        if char == '"':
            try:
                value, end = codec.unquote(text, index)
            except ValueError as exc:
                raise GrammarError(str(exc)) from exc
            tokens.append(_Token("STRING", value, index))
            index = end
            continue
        if char == "-" or char.isdigit():
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] in ".+-"):
                end += 1
            tokens.append(_Token("NUMBER", text[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(_Token("WORD", text[index:end], index))
            index = end
            continue
        raise GrammarError(f"unexpected character {char!r} at position {index}")
    return tokens


class _Parser:
    """Descent parser for the grammar text form (trees on an explicit stack)."""

    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token utilities ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[_Token]:
        position = self._index + offset
        if position < len(self._tokens):
            return self._tokens[position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise GrammarError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise GrammarError(
                f"expected {kind} but found {token.kind} ({token.text!r}) "
                f"at position {token.position}"
            )
        return token

    def _accept(self, kind: str) -> bool:
        token = self._peek()
        if token is None or token.kind != kind:
            return False
        self._index += 1
        return True

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    # -- productions ----------------------------------------------------------

    def parse_plan(self) -> UnifiedPlan:
        plan = UnifiedPlan()
        token = self._peek()
        if token is not None and token.kind == "WORD" and token.text == "Operation":
            plan.root = self._parse_tree()
        plan.properties = self._parse_properties(allow_leading_comma=True)
        if not self.at_end():
            token = self._peek()
            raise GrammarError(
                f"trailing input at position {token.position}: {token.text!r}"
            )
        return plan

    def _parse_tree(self) -> PlanNode:
        """A node and its children: *open* holds the nodes whose ``{`` has
        been read and whose ``}`` has not."""
        root: Optional[PlanNode] = None
        open: List[PlanNode] = []
        while True:
            node = self._parse_node()
            if open:
                open[-1].children.append(node)
            else:
                root = node
            if self._accept("ARROW_CHILDREN"):
                self._expect("LBRACE")
                open.append(node)
                continue
            # Inside braces a comma always separates sibling trees.
            while open and not self._accept("COMMA"):
                self._expect("RBRACE")
                open.pop()
            if not open:
                return root

    def _parse_node(self) -> PlanNode:
        keyword = self._expect("WORD")
        if keyword.text != "Operation":
            raise GrammarError(
                f"expected 'Operation' at position {keyword.position}, "
                f"found {keyword.text!r}"
            )
        self._expect("COLON")
        category_token = self._expect("WORD")
        if category_token.text not in _OPERATION_CATEGORIES:
            raise GrammarError(
                f"unknown operation category {category_token.text!r} "
                f"at position {category_token.position}"
            )
        self._expect("ARROW")
        identifier_token = self._expect("WORD")
        operation = Operation(
            OperationCategory.from_name(category_token.text),
            _decode_keyword(identifier_token.text),
        )
        node = PlanNode(operation)
        node.properties = self._parse_properties(allow_leading_comma=False)
        return node

    def _looking_at_property(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        arrow = self._peek(offset + 1)
        return (
            token is not None
            and token.kind == "WORD"
            and token.text in _PROPERTY_CATEGORIES
            and arrow is not None
            and arrow.kind == "ARROW"
        )

    def _parse_properties(self, allow_leading_comma: bool) -> List[Property]:
        """A property list.  Every property after the first follows a comma,
        so a node's list ends where the plan's list begins."""
        properties: List[Property] = []
        while True:
            token = self._peek()
            if (
                token is not None
                and token.kind == "COMMA"
                and (properties or allow_leading_comma)
                and self._looking_at_property(1)
            ):
                self._next()
            elif properties or not self._looking_at_property():
                break
            properties.append(self._parse_property())
        return properties

    def _parse_property(self) -> Property:
        category_token = self._expect("WORD")
        self._expect("ARROW")
        identifier_token = self._expect("WORD")
        self._expect("COLON")
        value = self._parse_value()
        return Property(
            PropertyCategory.from_name(category_token.text),
            _decode_keyword(identifier_token.text),
            value,
        )

    def _parse_value(self) -> PropertyValue:
        token = self._next()
        if token.kind == "STRING":
            return token.text
        if token.kind in ("NUMBER", "WORD"):
            try:
                return codec.read_scalar(token.text)
            except ValueError:
                pass
        raise GrammarError(
            f"expected a value at position {token.position}, found {token.text!r}"
        )


def parse(text: str) -> UnifiedPlan:
    """Parse a plan from the canonical grammar text form."""
    tokens = _tokenize(text)
    return _Parser(tokens).parse_plan()


def roundtrip(plan: UnifiedPlan) -> UnifiedPlan:
    """Serialize then re-parse *plan*; useful for validation and testing."""
    restored = parse(serialize(plan))
    restored.source_dbms = plan.source_dbms
    restored.query = plan.query
    return restored
