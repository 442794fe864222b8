"""Abstract syntax tree node definitions for the SQL subset.

The AST covers the SQL needed by the paper's workloads: DDL (``CREATE TABLE``,
``CREATE INDEX``, ``DROP TABLE``), DML (``INSERT``, ``UPDATE``, ``DELETE``),
and ``SELECT`` with joins, subqueries, grouping, ordering, set operations, and
``EXPLAIN`` wrappers.  All nodes are plain dataclasses; behaviour (printing,
planning, evaluation) lives in dedicated modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union


class Node:
    """Base class of every AST node."""


class Expression(Node):
    """Base class of scalar expressions."""


class Statement(Node):
    """Base class of statements."""


class TableExpression(Node):
    """Base class of FROM-clause items (tables, subqueries, joins)."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expression):
    """A constant value: number, string, boolean, or NULL."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference such as ``t0.c0``."""

    column: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass
class Star(Expression):
    """The ``*`` (or ``t.*``) select item."""

    table: Optional[str] = None


@dataclass
class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, AND/OR, string concat."""

    operator: str
    left: Expression
    right: Expression


@dataclass
class UnaryOp(Expression):
    """A unary operation: ``NOT expr``, ``-expr``, ``+expr``."""

    operator: str
    operand: Expression


@dataclass
class FunctionCall(Expression):
    """A function or aggregate call, e.g. ``COUNT(*)`` or ``SUM(x)``."""

    name: str
    arguments: List[Expression] = field(default_factory=list)
    distinct: bool = False
    star: bool = False


@dataclass
class InList(Expression):
    """``expr [NOT] IN (item, item, ...)``."""

    expression: Expression
    items: List[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    expression: Expression
    subquery: "SelectStatement" = None
    negated: bool = False


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    expression: Expression
    low: Expression = None
    high: Expression = None
    negated: bool = False


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    expression: Expression
    pattern: Expression = None
    negated: bool = False


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    expression: Expression
    negated: bool = False


@dataclass
class CaseWhen(Node):
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: Expression
    result: Expression


@dataclass
class Case(Expression):
    """A searched or simple CASE expression."""

    operand: Optional[Expression] = None
    whens: List[CaseWhen] = field(default_factory=list)
    else_result: Optional[Expression] = None


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    expression: Expression
    target_type: str = "TEXT"


@dataclass
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a scalar value."""

    query: "SelectStatement" = None


@dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "SelectStatement" = None
    negated: bool = False


@dataclass
class Parameter(Expression):
    """A positional parameter (``?`` or ``$n``)."""

    name: str = "?"


# ---------------------------------------------------------------------------
# FROM-clause items
# ---------------------------------------------------------------------------


@dataclass
class TableRef(TableExpression):
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        """The name by which columns of this table are qualified."""
        return self.alias or self.name


@dataclass
class SubqueryRef(TableExpression):
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "SelectStatement"
    alias: str = "subquery"

    @property
    def effective_name(self) -> str:
        return self.alias


@dataclass
class Join(TableExpression):
    """A join between two FROM-clause items."""

    left: TableExpression
    right: TableExpression
    join_type: str = "INNER"  # INNER, LEFT, RIGHT, FULL, CROSS
    condition: Optional[Expression] = None
    using_columns: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One item of the SELECT list."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    """One item of the ORDER BY list."""

    expression: Expression
    descending: bool = False


@dataclass
class SelectCore(Node):
    """A single SELECT block (no set operations, ordering, or limits)."""

    items: List[SelectItem] = field(default_factory=list)
    from_clause: Optional[TableExpression] = None
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass
class SetOperation(Node):
    """A set operation combining two SELECT bodies."""

    operator: str  # UNION, UNION ALL, INTERSECT, EXCEPT
    left: Union[SelectCore, "SetOperation"]
    right: Union[SelectCore, "SetOperation"]


@dataclass
class SelectStatement(Statement):
    """A complete SELECT statement."""

    body: Union[SelectCore, SetOperation] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None

    def cores(self) -> List[SelectCore]:
        """Return all SELECT blocks in the body, left-to-right."""
        result: List[SelectCore] = []
        stack = [] if self.body is None else [self.body]
        while stack:
            body = stack.pop()
            if isinstance(body, SelectCore):
                result.append(body)
            else:
                stack.extend((body.right, body.left))
        return result


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef(Node):
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str = "INT"
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expression] = None


@dataclass
class CreateTable(Statement):
    """``CREATE TABLE name (column definitions)``."""

    name: str
    columns: List[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class CreateIndex(Statement):
    """``CREATE [UNIQUE] INDEX name ON table (columns)``."""

    name: str
    table: str = ""
    columns: List[str] = field(default_factory=list)
    unique: bool = False


@dataclass
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


@dataclass
class Insert(Statement):
    """``INSERT INTO table [(columns)] VALUES (...), (...)`` or ``INSERT ... SELECT``."""

    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[List[Expression]] = field(default_factory=list)
    select: Optional[SelectStatement] = None


@dataclass
class Update(Statement):
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Optional[Expression] = None


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] [FORMAT ...] statement``."""

    statement: Statement
    analyze: bool = False
    format: Optional[str] = None
    options: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def iter_expressions(expression: Optional[Expression]) -> Iterator[Expression]:
    """Yield *expression* and every nested sub-expression (pre-order).

    An explicit stack, not recursive ``yield from``, which pays one generator
    resumption per level for every node it yields.
    """
    stack = [expression]
    while stack:
        expression = stack.pop()
        if expression is None:
            continue
        yield expression
        if isinstance(expression, (ColumnRef, Literal)):
            continue
        children: Sequence[Optional[Expression]]
        if isinstance(expression, BinaryOp):
            children = (expression.left, expression.right)
        elif isinstance(expression, UnaryOp):
            children = (expression.operand,)
        elif isinstance(expression, FunctionCall):
            children = expression.arguments
        elif isinstance(expression, InList):
            children = (expression.expression, *expression.items)
        elif isinstance(expression, InSubquery):
            children = (expression.expression,)
        elif isinstance(expression, Between):
            children = (expression.expression, expression.low, expression.high)
        elif isinstance(expression, Like):
            children = (expression.expression, expression.pattern)
        elif isinstance(expression, IsNull):
            children = (expression.expression,)
        elif isinstance(expression, Case):
            children = (
                expression.operand,
                *[when.condition for when in expression.whens],
                *[when.result for when in expression.whens],
                expression.else_result,
            )
        elif isinstance(expression, Cast):
            children = (expression.expression,)
        else:
            children = ()
        stack.extend(reversed(children))


def referenced_columns(expression: Optional[Expression]) -> List[ColumnRef]:
    """Return every column reference inside *expression*."""
    return [e for e in iter_expressions(expression) if isinstance(e, ColumnRef)]


def contains_aggregate(expression: Optional[Expression]) -> bool:
    """Return whether *expression* contains an aggregate function call."""
    aggregates = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
    return any(
        isinstance(e, FunctionCall) and e.name.upper() in aggregates
        for e in iter_expressions(expression)
    )


def split_conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Split an AND-connected predicate into its conjuncts, left to right.

    Iterative: a long ``a AND b AND …`` chain costs linear time, no recursion.
    """
    conjuncts: List[Expression] = []
    stack = [expression]
    while stack:
        expression = stack.pop()
        if isinstance(expression, BinaryOp) and expression.operator.upper() == "AND":
            stack += (expression.right, expression.left)
        elif expression is not None:
            conjuncts.append(expression)
    return conjuncts


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Combine predicates with AND; the inverse of :func:`split_conjuncts`."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def join_items(table_expression: Optional[TableExpression]) -> Iterator[TableExpression]:
    """Every item of a FROM clause in post-order — each :class:`Join` right
    after its left and then its right input — without recursion."""
    stack = [(table_expression, False)]
    while stack:
        item, inputs_done = stack.pop()
        if isinstance(item, Join) and not inputs_done:
            stack.extend(((item, True), (item.right, False), (item.left, False)))
        else:
            yield item


def base_tables(table_expression: Optional[TableExpression]) -> List[TableRef]:
    """Return every base-table reference inside a FROM clause item."""
    if table_expression is None:
        return []
    if isinstance(table_expression, TableRef):
        return [table_expression]
    if isinstance(table_expression, SubqueryRef):
        tables: List[TableRef] = []
        for core in table_expression.query.cores():
            tables.extend(base_tables(core.from_clause))
        return tables
    if isinstance(table_expression, Join):
        return base_tables(table_expression.left) + base_tables(table_expression.right)
    return []
