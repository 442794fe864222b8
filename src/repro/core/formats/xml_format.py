"""XML serialization of unified query plans.

XML is one of the structured formats supported by PostgreSQL and SQL Server
(Table III).  The document layout is::

    <unifiedPlan sourceDbms="postgresql">
      <planProperties>
        <property category="Status" identifier="Planning Time">0.1</property>
      </planProperties>
      <node category="Producer" identifier="Full Table Scan">
        <property category="Configuration" identifier="name object">t0</property>
        <node .../>
      </node>
    </unifiedPlan>
"""

from __future__ import annotations

from xml.etree import ElementTree

from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.model import Operation, PlanNode, Property, UnifiedPlan, fold_tree, walk_tree
from repro.errors import FormatError

_INDENT = "  "


def _value_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;").replace(">", "&gt;")


def _attribute(text: str) -> str:
    """*text* escaped for an attribute value.

    Parsers turn a raw tab, newline or CR in an attribute into a space, so
    those are written as character references; XML 1.0 cannot carry any
    other C0 control character at all.
    """
    if any(ord(ch) < 0x20 and ch not in "\t\n\r" for ch in text):
        raise FormatError(f"XML 1.0 cannot carry the control characters in {text!r}")
    return _escape(text).replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


def _needs_escaping(text: str) -> bool:
    # XML text nodes cannot carry most control characters, and parsers
    # normalize "\r" to "\n"; such strings are stored escaped instead so the
    # round-trip preserves the value (and the plan fingerprint) exactly.
    return any(ord(ch) < 0x20 and ch not in "\t\n" for ch in text)


def _property_line(prop: Property, indent: str) -> str:
    value = prop.value
    head = (
        f'{indent}<property category="{_attribute(prop.category.value)}" '
        f'identifier="{_attribute(prop.identifier)}" type="{_value_type(value)}"'
    )
    text = "" if value is None else str(value).lower() if isinstance(value, bool) else str(value)
    if isinstance(value, str) and _needs_escaping(text):
        head += ' escape="python"'
        text = text.encode("unicode_escape").decode("ascii")
    return f"{head}>{_escape(text)}</property>" if text else head + "/>"


def dumps(plan: UnifiedPlan) -> str:
    """Serialize *plan* to an XML document indented by two spaces per level."""
    lines = ['<?xml version="1.0" ?>', f'<unifiedPlan sourceDbms="{_attribute(plan.source_dbms or "")}">']
    if plan.properties:
        lines.append(f"{_INDENT}<planProperties>")
        lines.extend(_property_line(prop, _INDENT * 2) for prop in plan.properties)
        lines.append(f"{_INDENT}</planProperties>")
    else:
        lines.append(f"{_INDENT}<planProperties/>")
    for node, depth, _, _, _, exit in walk_tree(plan.root):
        indent = _INDENT * (depth + 1)
        empty = not node.properties and not node.children
        if exit:
            if not empty:
                lines.append(f"{indent}</node>")
            continue
        lines.append(
            f'{indent}<node category="{_attribute(node.operation.category.value)}" '
            f'identifier="{_attribute(node.operation.identifier)}"{"/>" if empty else ">"}'
        )
        lines.extend(_property_line(prop, indent + _INDENT) for prop in node.properties)
    lines.append("</unifiedPlan>")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _value_from_element(element: ElementTree.Element):
    kind = element.get("type", "string")
    # Text-only elements keep their text verbatim through pretty-printing
    # (the indenter only pads elements with element children), so string
    # values — including leading/trailing whitespace — round-trip exactly.
    # Only the typed scalars tolerate surrounding whitespace.
    text = element.text or ""
    if kind == "null":
        return None
    if kind == "boolean":
        return text.strip() == "true"
    if kind == "number":
        stripped = text.strip()
        try:
            return int(stripped)
        except ValueError:
            pass
        try:
            return float(stripped)  # also covers 'inf'/'nan' repr output
        except ValueError as exc:
            raise FormatError(f"invalid number in XML plan: {text!r}") from exc
    if element.get("escape") == "python":
        try:
            return text.encode("ascii").decode("unicode_escape")
        except (UnicodeDecodeError, UnicodeEncodeError) as exc:
            raise FormatError(f"invalid escaped string in XML plan: {text!r}") from exc
    return text


def _property_from_element(element: ElementTree.Element) -> Property:
    category_name = element.get("category")
    identifier = element.get("identifier")
    if category_name is None or identifier is None:
        raise FormatError("XML property element needs category and identifier")
    try:
        category = PropertyCategory.from_name(category_name)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return Property(category, identifier, _value_from_element(element))


def _child_nodes(element: ElementTree.Element) -> list:
    return [child for child in element if child.tag == "node"]


def _node_from_element(element: ElementTree.Element, children: list) -> PlanNode:
    category_name = element.get("category")
    identifier = element.get("identifier")
    if category_name is None or identifier is None:
        raise FormatError("XML node element needs category and identifier")
    try:
        category = OperationCategory.from_name(category_name)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    properties = []
    for child in element:
        if child.tag == "property":
            properties.append(_property_from_element(child))
        elif child.tag != "node":
            raise FormatError(f"unexpected XML element <{child.tag}> inside node")
    return PlanNode(Operation(category, identifier), properties=properties, children=children)


def loads(text: str) -> UnifiedPlan:
    """Parse a unified plan from its XML document form."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise FormatError(f"invalid XML document: {exc}") from exc
    if root.tag != "unifiedPlan":
        raise FormatError(f"expected <unifiedPlan> root, got <{root.tag}>")
    plan = UnifiedPlan(source_dbms=root.get("sourceDbms", ""))
    for child in root:
        if child.tag == "planProperties":
            for prop_element in child:
                if prop_element.tag != "property":
                    raise FormatError(
                        f"unexpected XML element <{prop_element.tag}> in planProperties"
                    )
                plan.properties.append(_property_from_element(prop_element))
        elif child.tag == "node":
            if plan.root is not None:
                raise FormatError("XML plan has more than one root node")
            plan.root = fold_tree(child, _child_nodes, _node_from_element)
        else:
            raise FormatError(f"unexpected XML element <{child.tag}> in unifiedPlan")
    return plan
