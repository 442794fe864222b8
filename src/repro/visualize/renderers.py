"""Renderers that visualize unified query plans (the PEV2 adaptation, Figure 3).

A single implementation renders the plan of *any* DBMS that can be converted
to UPlan — the paper's point for application A.2.  Three output targets are
provided: an ASCII tree for terminals, Graphviz DOT for graph tooling, and a
self-contained HTML page mimicking PEV2's card layout.
"""

from __future__ import annotations

import html
from typing import List

from repro.core.categories import OperationCategory
from repro.core.model import UnifiedPlan, walk_tree

#: Category → colour used by the DOT and HTML renderers.
CATEGORY_COLOURS = {
    OperationCategory.PRODUCER: "#4e79a7",
    OperationCategory.COMBINATOR: "#f28e2b",
    OperationCategory.JOIN: "#e15759",
    OperationCategory.FOLDER: "#76b7b2",
    OperationCategory.PROJECTOR: "#59a14f",
    OperationCategory.EXECUTOR: "#bab0ac",
    OperationCategory.CONSUMER: "#b07aa1",
}


def render_ascii(plan: UnifiedPlan, with_properties: bool = False) -> str:
    """Render a unified plan as an ASCII tree."""
    lines: List[str] = [f"[{plan.source_dbms or 'unified'}] query plan"]
    # prefixes[d]: what precedes the connector of a node at depth d.
    prefixes = [""]
    for node, depth, _, _, last, exit in walk_tree(plan.root):
        if exit:
            continue
        prefix = prefixes[depth]
        connector = "`-- " if last else "|-- "
        lines.append(f"{prefix}{connector}{node.operation.category.value}->{node.operation.identifier}")
        if with_properties:
            for prop in node.properties:
                lines.append(f"{prefix}{'    ' if last else '|   '}  * {prop.identifier}: {prop.value}")
        del prefixes[depth + 1:]
        prefixes.append(prefix + ("    " if last else "|   "))
    for prop in plan.properties:
        lines.append(f"= {prop.identifier}: {prop.value}")
    return "\n".join(lines)


def render_dot(plan: UnifiedPlan) -> str:
    """Render a unified plan as a Graphviz DOT digraph."""
    lines = [
        "digraph unified_plan {",
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fontname="Helvetica"];',
    ]
    for node, _, node_id, parent_id, _, exit in walk_tree(plan.root):
        if not exit:
            colour = CATEGORY_COLOURS[node.operation.category]
            label = f"{node.operation.category.value}\\n{node.operation.identifier}"
            lines.append(f'  n{node_id} [label="{label}", fillcolor="{colour}", fontcolor="white"];')
        elif parent_id is not None:
            lines.append(f"  n{parent_id} -> n{node_id};")
    lines.append("}")
    return "\n".join(lines)


def render_html(plan: UnifiedPlan, title: str = "Unified query plan") -> str:
    """Render a unified plan as a self-contained HTML page (PEV2-style cards)."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body { font-family: sans-serif; background: #f4f5f7; }",
        ".node { border-radius: 6px; padding: 6px 10px; margin: 6px 0 6px 24px;",
        "        background: white; border-left: 6px solid #888; box-shadow: 0 1px 2px rgba(0,0,0,.15); }",
        ".category { font-size: 11px; text-transform: uppercase; color: #666; }",
        ".operation { font-weight: bold; }",
        ".property { font-size: 12px; color: #444; }",
        "</style></head><body>",
        f"<h2>{html.escape(title)} — {html.escape(plan.source_dbms or 'unified')}</h2>",
    ]

    for node, depth, _, _, _, exit in walk_tree(plan.root):
        if exit:
            continue
        colour = CATEGORY_COLOURS[node.operation.category]
        parts.append(
            f"<div class='node' style='margin-left:{24 * depth}px; border-left-color:{colour}'>"
            f"<div class='category'>{node.operation.category.value}</div>"
            f"<div class='operation'>{html.escape(node.operation.identifier)}</div>"
        )
        for prop in node.properties[:6]:
            parts.append(
                f"<div class='property'>{html.escape(prop.identifier)}: "
                f"{html.escape(str(prop.value))}</div>"
            )
        parts.append("</div>")
    if plan.properties:
        parts.append("<h3>Plan properties</h3><ul>")
        for prop in plan.properties:
            parts.append(f"<li>{html.escape(prop.identifier)}: {html.escape(str(prop.value))}</li>")
        parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)
