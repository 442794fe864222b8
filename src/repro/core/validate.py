"""Validation of unified query plans against the design's constraints.

The unified representation is *complete*, *general*, and *extensible*
(Section IV-B), but a plan instance still has to satisfy structural rules:
identifiers must be grammar keywords, values must be in the grammar's value
domain, categories must be the studied ones, and the tree must really be a
tree (no shared or cyclic nodes).  :func:`validate_plan` checks all of this
and either raises :class:`~repro.errors.PlanValidationError` or returns a
list of human-readable findings when ``raise_on_error=False``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.model import PlanNode, Property, UnifiedPlan, is_valid_keyword, is_valid_value
from repro.errors import PlanValidationError

#: Where a node sits: its parent's link and its index among the siblings,
#: ``None`` at the root.  The path string is built only for a finding.
_Link = Optional[Tuple["_Link", int]]


def _path(link: _Link) -> str:
    indexes = []
    while link is not None:
        link, index = link
        indexes.append(f".children[{index}]")
    return "plan.tree" + "".join(reversed(indexes))


def _property_problems(properties: List[Property]) -> Iterator[str]:
    for index, prop in enumerate(properties):
        if not isinstance(prop.category, PropertyCategory):
            yield f".properties[{index}]: invalid property category {prop.category!r}"
        if not is_valid_keyword(prop.identifier):
            yield f".properties[{index}]: invalid property identifier {prop.identifier!r}"
        if not is_valid_value(prop.value):
            yield f".properties[{index}]: invalid property value {prop.value!r}"


def _node_problems(node: PlanNode) -> Iterator[str]:
    if not isinstance(node.operation.category, OperationCategory):
        yield f": invalid operation category {node.operation.category!r}"
    if not is_valid_keyword(node.operation.identifier):
        yield f": invalid operation identifier {node.operation.identifier!r}"
    yield from _property_problems(node.properties)


def validate_plan(plan: UnifiedPlan, raise_on_error: bool = True) -> List[str]:
    """Validate *plan*; return findings (empty when valid).

    Parameters
    ----------
    plan:
        The plan to validate.
    raise_on_error:
        When true (default) a :class:`PlanValidationError` is raised if any
        finding is produced; otherwise the findings are returned.
    """
    findings = ["plan" + problem for problem in _property_problems(plan.properties)]
    seen: Set[int] = set()
    stack: List[Tuple[PlanNode, _Link]] = [] if plan.root is None else [(plan.root, None)]
    while stack:
        node, link = stack.pop()
        if id(node) in seen:
            findings.append(f"{_path(link)}: node appears more than once in the tree (not a tree)")
            continue
        seen.add(id(node))
        problems = list(_node_problems(node))
        if problems:
            path = _path(link)
            findings.extend(path + problem for problem in problems)
        stack.extend((node.children[i], (link, i)) for i in reversed(range(len(node.children))))

    if plan.root is None and not plan.properties:
        findings.append("plan has neither a tree nor plan-associated properties")

    if findings and raise_on_error:
        raise PlanValidationError("; ".join(findings))
    return findings


def is_valid_plan(plan: UnifiedPlan) -> bool:
    """Return whether *plan* passes :func:`validate_plan`."""
    return not validate_plan(plan, raise_on_error=False)
