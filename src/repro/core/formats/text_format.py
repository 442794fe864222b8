"""Indented text serialization of unified query plans.

This is the human-oriented "natural" format used throughout the paper's
examples (e.g. Listing 4), where each operation appears on its own line as
``Category->Identifier`` and is indented below its parent, followed by
indented property lines::

    Combinator->Sort
      Folder->Aggregate
        Join->Hash Join
          Producer->Full Table Scan
            Configuration->name object: "partsupp"

The format parses back (indentation-based raw plans are read by the
converters' own ``IndentedTree``); values go through the shared
:mod:`~repro.core.formats.codec`.
"""

from __future__ import annotations

from typing import List, Tuple

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
from repro.errors import FormatError

_INDENT = "  "

_OPERATION_CATEGORIES = {member.value: member for member in OperationCategory}
_PROPERTY_CATEGORIES = {member.value: member for member in PropertyCategory}


def _parse_value(text: str) -> PropertyValue:
    try:
        return codec.read_value(text)
    except ValueError as exc:
        raise FormatError(f"invalid value in text plan: {text.strip()!r}") from exc


def render(plan: UnifiedPlan, with_properties: bool = True) -> str:
    """Render *plan* into the indented text form."""
    lines: List[str] = []
    for node, depth, _, _, _, exit in walk_tree(plan.root):
        if exit:
            continue
        prefix = _INDENT * depth
        lines.append(f"{prefix}{node.operation.category.value}->{node.operation.identifier}")
        if with_properties:
            for prop in node.properties:
                lines.append(
                    f"{prefix}{_INDENT}* {prop.category.value}->{prop.identifier}: "
                    f"{codec.write_value(prop.value)}"
                )
    for prop in plan.properties:
        lines.append(
            f"= {prop.category.value}->{prop.identifier}: {codec.write_value(prop.value)}"
        )
    return "\n".join(lines)


def _split_line(line: str) -> Tuple[int, str]:
    stripped = line.lstrip(" ")
    indent_spaces = len(line) - len(stripped)
    if indent_spaces % len(_INDENT) != 0:
        raise FormatError(f"inconsistent indentation in line: {line!r}")
    return indent_spaces // len(_INDENT), stripped


def _parse_operation_line(text: str) -> Operation:
    if "->" not in text:
        raise FormatError(f"operation line must contain '->': {text!r}")
    category_name, identifier = text.split("->", 1)
    category = _OPERATION_CATEGORIES.get(category_name.strip())
    if category is None:
        raise FormatError(f"unknown operation category in line: {text!r}")
    return Operation(category, identifier.strip())


def _parse_property_line(text: str) -> Property:
    if "->" not in text or ":" not in text:
        raise FormatError(f"property line must contain '->' and ':': {text!r}")
    category_name, rest = text.split("->", 1)
    identifier, value_text = rest.split(":", 1)
    category = _PROPERTY_CATEGORIES.get(category_name.strip())
    if category is None:
        raise FormatError(f"unknown property category in line: {text!r}")
    return Property(category, identifier.strip(), _parse_value(value_text))


def parse(text: str) -> UnifiedPlan:
    """Parse a plan from the indented text form produced by :func:`render`."""
    plan = UnifiedPlan()
    stack: List[Tuple[int, PlanNode]] = []
    for raw_line in text.splitlines():
        if not raw_line.strip():
            continue
        if raw_line.lstrip().startswith("= "):
            plan.properties.append(_parse_property_line(raw_line.lstrip()[2:]))
            continue
        depth, content = _split_line(raw_line)
        if content.startswith("* "):
            if not stack:
                raise FormatError(f"property line with no operation: {raw_line!r}")
            stack[-1][1].properties.append(_parse_property_line(content[2:]))
            continue
        node = PlanNode(_parse_operation_line(content))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack:
            if plan.root is not None:
                raise FormatError("text plan has more than one root operation")
            plan.root = node
        else:
            stack[-1][1].children.append(node)
        stack.append((depth, node))
    return plan
