"""Ternary Logic Partitioning (TLP) — the logic-bug test oracle.

TLP partitions a query's rows by a predicate ``p`` into the rows where ``p``
is true, false, and NULL.  The union of the three partitions must equal the
unpartitioned result; any difference indicates a logic bug.  The paper uses
TLP as the oracle that surfaces the Listing 3 MySQL bug found with QPG.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.printer import print_expression


@dataclass
class TLPResult:
    """Outcome of one TLP check."""

    passed: bool
    query: str
    partition_queries: Tuple[str, str, str]
    base_count: int
    partition_count: int
    message: str = ""


def _row_key(row: dict) -> Tuple:
    # Dict keys are unique, so sorting the items never compares two values;
    # repr keeps 1, 1.0 and True apart.
    return tuple([(key, repr(value)) for key, value in sorted(row.items())])


def partition_queries(table: str, predicate: ast.Expression, select_list: str = "*") -> Tuple[str, str, str]:
    """Build the three partition queries for ``SELECT select_list FROM table``."""
    predicate_text = print_expression(predicate)
    return (
        f"SELECT {select_list} FROM {table} WHERE {predicate_text}",
        f"SELECT {select_list} FROM {table} WHERE NOT ({predicate_text})",
        f"SELECT {select_list} FROM {table} WHERE ({predicate_text}) IS NULL",
    )


def check_tlp(dialect, table: str, predicate: ast.Expression, select_list: str = "*") -> TLPResult:
    """Run a TLP check for one table/predicate pair against *dialect*."""
    base_query = f"SELECT {select_list} FROM {table}"
    partitions = partition_queries(table, predicate, select_list)

    base_rows = dialect.execute(base_query)
    partition_rows: List[dict] = []
    for query in partitions:
        partition_rows.extend(dialect.execute(query))

    base_counter = Counter(_row_key(row) for row in base_rows)
    partition_counter = Counter(_row_key(row) for row in partition_rows)
    passed = base_counter == partition_counter
    message = ""
    if not passed:
        missing = base_counter - partition_counter
        extra = partition_counter - base_counter
        message = (
            f"partitioned result differs from base result "
            f"(missing={sum(missing.values())}, extra={sum(extra.values())})"
        )
    return TLPResult(
        passed=passed,
        query=base_query,
        partition_queries=partitions,
        base_count=sum(base_counter.values()),
        partition_count=sum(partition_counter.values()),
        message=message,
    )
