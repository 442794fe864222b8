"""Tabular serialization of unified query plans.

Table formats (Section III-E) encode each operation and its properties on one
row and express the tree structure through an ``id`` / ``parent`` pair, much
like MySQL's and TiDB's tabular ``EXPLAIN`` output.  The rendering is a plain
ASCII table:

.. code-block:: text

    +----+--------+------------------------+---------------------------+
    | id | parent | operation              | properties                |
    +----+--------+------------------------+---------------------------+
    |  1 |        | Folder->Aggregate      | Cardinality->rows: 100    |
    |  2 |      1 | Producer->Full Table…  | Configuration->name: "t0" |
    +----+--------+------------------------+---------------------------+
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

from repro.core.model import UnifiedPlan, walk_tree


def ascii_table(columns: Sequence[str], rows: Iterable[Sequence[Any]], footer: Iterable[str]) -> str:
    """The one ASCII-table writer: padded ``|`` rows between ``+---+`` rules,
    then the *footer* lines.  Also writes the dialects' tabular EXPLAIN."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max([len(column)] + [len(row[i]) for row in cells]) for i, column in enumerate(columns)]
    rule = "+" + "+".join("-" * (width + 2) for width in widths) + "+"

    def format_row(values: Sequence[str]) -> str:
        return "|" + "|".join(f" {value.ljust(widths[i])} " for i, value in enumerate(values)) + "|"

    lines = [rule, format_row(columns), rule]
    lines.extend(format_row(row) for row in cells)
    lines.append(rule)
    lines.extend(footer)
    return "\n".join(lines)


def render(plan: UnifiedPlan) -> str:
    """Render *plan* as an ASCII table; plan properties follow as a footer."""
    rows: List[List[Any]] = []
    for node, _, node_id, parent_id, _, exit in walk_tree(plan.root):
        if not exit:
            properties = "; ".join(
                f"{p.category.value}->{p.identifier}: {p.value!r}" for p in node.properties
            )
            rows.append([node_id, "" if parent_id is None else parent_id, node.operation, properties])
    footer = (f"{p.category.value}->{p.identifier}: {p.value!r}" for p in plan.properties)
    return ascii_table(("id", "parent", "operation", "properties"), rows, footer)
