"""Fluent builder API for constructing unified query plans.

The builder mirrors how converters and applications assemble plans: start a
plan, push operation nodes (optionally descending into children), attach
properties to the current node or to the plan, then ``build()``.

Example
-------
>>> from repro.core import PlanBuilder, OperationCategory, PropertyCategory
>>> plan = (
...     PlanBuilder(source_dbms="postgresql")
...     .operation(OperationCategory.FOLDER, "Aggregate")
...     .prop(PropertyCategory.CARDINALITY, "Estimated Rows", 100)
...     .child(OperationCategory.PRODUCER, "Full Table Scan")
...     .prop(PropertyCategory.CONFIGURATION, "name object", "t0")
...     .end()
...     .build()
... )
>>> plan.node_count()
2
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.model import Operation, PlanNode, Property, PropertyValue, UnifiedPlan
from repro.errors import PlanValidationError


class PlanBuilder:
    """Incrementally build a :class:`UnifiedPlan`.

    The builder maintains a cursor into the tree being built.  ``operation``
    creates the root (or a sibling is an error — a plan has one root),
    ``child`` descends, ``end`` ascends, and ``prop`` attaches a property to
    the current node (or to the plan if no node has been created yet).
    """

    def __init__(self, source_dbms: str = "", query: str = "") -> None:
        self._plan = UnifiedPlan(source_dbms=source_dbms, query=query)
        self._stack: List[PlanNode] = []

    # -- tree construction -----------------------------------------------------

    def operation(
        self, category: OperationCategory, identifier: str
    ) -> "PlanBuilder":
        """Create the root operation of the plan."""
        if self._plan.root is not None:
            raise PlanValidationError(
                "plan already has a root operation; use child() to nest"
            )
        node = PlanNode(Operation(category, identifier))
        self._plan.root = node
        self._stack = [node]
        return self

    def child(self, category: OperationCategory, identifier: str) -> "PlanBuilder":
        """Create a child of the current node and descend into it."""
        if not self._stack:
            raise PlanValidationError("child() requires a current operation")
        node = PlanNode(Operation(category, identifier))
        self._stack[-1].add_child(node)
        self._stack.append(node)
        return self

    def sibling(self, category: OperationCategory, identifier: str) -> "PlanBuilder":
        """Close the current node and open a sibling under the same parent."""
        if len(self._stack) < 2:
            raise PlanValidationError("sibling() requires a parent operation")
        self._stack.pop()
        return self.child(category, identifier)

    def end(self) -> "PlanBuilder":
        """Ascend to the parent of the current node."""
        if not self._stack:
            raise PlanValidationError("end() without a matching child()/operation()")
        self._stack.pop()
        return self

    # -- properties --------------------------------------------------------------

    def prop(
        self,
        category: PropertyCategory,
        identifier: str,
        value: PropertyValue = None,
    ) -> "PlanBuilder":
        """Attach a property to the current node, or to the plan if no node."""
        target_properties = (
            self._stack[-1].properties if self._stack else self._plan.properties
        )
        target_properties.append(Property(category, identifier, value))
        return self

    def plan_prop(
        self,
        category: PropertyCategory,
        identifier: str,
        value: PropertyValue = None,
    ) -> "PlanBuilder":
        """Attach a plan-associated property regardless of the cursor."""
        self._plan.add_property(category, identifier, value)
        return self

    # -- convenience shorthands ---------------------------------------------------

    def cardinality(self, identifier: str, value: PropertyValue) -> "PlanBuilder":
        """Shorthand for a Cardinality property on the current node."""
        return self.prop(PropertyCategory.CARDINALITY, identifier, value)

    def cost(self, identifier: str, value: PropertyValue) -> "PlanBuilder":
        """Shorthand for a Cost property on the current node."""
        return self.prop(PropertyCategory.COST, identifier, value)

    def configuration(self, identifier: str, value: PropertyValue) -> "PlanBuilder":
        """Shorthand for a Configuration property on the current node."""
        return self.prop(PropertyCategory.CONFIGURATION, identifier, value)

    def status(self, identifier: str, value: PropertyValue) -> "PlanBuilder":
        """Shorthand for a Status property on the current node."""
        return self.prop(PropertyCategory.STATUS, identifier, value)

    # -- finalization ---------------------------------------------------------------

    def build(self) -> UnifiedPlan:
        """Return the constructed plan.

        It is legal to call ``build`` while the cursor is still inside the
        tree; remaining open nodes are implicitly closed.
        """
        return self._plan


def node(
    category: OperationCategory,
    identifier: str,
    properties: Optional[List[Property]] = None,
    children: Optional[List[PlanNode]] = None,
) -> PlanNode:
    """Functional helper to build a :class:`PlanNode` in a single expression."""
    return PlanNode(
        operation=Operation(category, identifier),
        properties=list(properties or []),
        children=list(children or []),
    )
