"""Scalar expression evaluation with SQL three-valued logic.

Rows flowing through the engine are dictionaries.  Columns produced by scans
are keyed ``"alias.column"``; columns produced by projections and aggregates
are keyed by their output name.  :func:`evaluate` resolves a
:class:`~repro.sqlparser.ast_nodes.ColumnRef` accordingly.

SQL's three-valued logic is honoured: comparisons involving ``NULL`` yield
``None`` (unknown), and ``AND`` / ``OR`` / ``NOT`` follow Kleene logic.  The
TLP test oracle depends on this behaviour to partition queries by
``p`` / ``NOT p`` / ``p IS NULL``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

from repro.engine import arrays
from repro.errors import ExecutionError
from repro.sqlparser import ast_nodes as ast

Row = Dict[str, object]

#: Signature of the hook used to evaluate subqueries appearing in expressions.
SubqueryExecutor = Callable[[ast.SelectStatement, Row], List[Row]]


class EvaluationContext:
    """Carries the current row and the subquery-execution hook."""

    __slots__ = ("row", "subquery_executor")

    def __init__(
        self,
        row: Optional[Row] = None,
        subquery_executor: Optional[SubqueryExecutor] = None,
    ) -> None:
        self.row = row or {}
        self.subquery_executor = subquery_executor


def resolve_column(row: Row, reference: ast.ColumnRef) -> object:
    """Resolve a column reference against a row dictionary."""
    if reference.table:
        qualified = f"{reference.table}.{reference.column}"
        if qualified in row:
            return row[qualified]
        lowered = qualified.lower()
        for key, value in row.items():
            if key.lower() == lowered:
                return value
        raise ExecutionError(f"unknown column {qualified!r}")
    if reference.column in row:
        return row[reference.column]
    suffix = "." + reference.column.lower()
    matches = [key for key in row if key.lower().endswith(suffix)]
    if len(matches) == 1:
        return row[matches[0]]
    if len(matches) > 1:
        # Ambiguous unqualified reference: prefer the first match in row order,
        # mirroring the permissive behaviour of several of the studied DBMSs.
        return row[matches[0]]
    lowered_column = reference.column.lower()
    for key, value in row.items():
        if key.lower() == lowered_column:
            return value
    raise ExecutionError(f"unknown column {reference.column!r}")


def _compare(operator: str, left: object, right: object) -> Optional[bool]:
    if left is None or right is None:
        return None
    try:
        if operator == "=":
            return left == right
        if operator == "<>":
            return left != right
        if isinstance(left, bool):
            left = int(left)
        if isinstance(right, bool):
            right = int(right)
        if isinstance(left, (int, float)) != isinstance(right, (int, float)):
            left, right = str(left), str(right)
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError:
        return None
    raise ExecutionError(f"unknown comparison operator {operator!r}")


def _arithmetic(operator: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if operator == "||":
        return str(left) + str(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"arithmetic {operator!r} requires numeric operands, got {left!r}, {right!r}"
        )
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            return None
        result = left / right
        return result
    if operator == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {operator!r}")


def _logical_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _logical_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _to_bool(value: object) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _like(value: object, pattern: object) -> Optional[bool]:
    if value is None or pattern is None:
        return None
    regex = "^" + re.escape(str(pattern)).replace("%", ".*").replace("_", ".") + "$"
    return re.match(regex, str(value), flags=re.DOTALL) is not None


_SCALAR_FUNCTIONS: Dict[str, Callable[..., object]] = {}


def scalar_function(name: str) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Register a scalar function implementation under *name*."""

    def decorator(function: Callable[..., object]) -> Callable[..., object]:
        _SCALAR_FUNCTIONS[name.upper()] = function
        return function

    return decorator


@scalar_function("GREATEST")
def _fn_greatest(*arguments: object) -> object:
    values = [value for value in arguments if value is not None]
    return max(values) if values else None


@scalar_function("LEAST")
def _fn_least(*arguments: object) -> object:
    values = [value for value in arguments if value is not None]
    return min(values) if values else None


@scalar_function("ABS")
def _fn_abs(value: object = None) -> object:
    return None if value is None else abs(value)


@scalar_function("COALESCE")
def _fn_coalesce(*arguments: object) -> object:
    for value in arguments:
        if value is not None:
            return value
    return None


@scalar_function("NULLIF")
def _fn_nullif(left: object = None, right: object = None) -> object:
    return None if left == right else left


@scalar_function("LENGTH")
def _fn_length(value: object = None) -> object:
    return None if value is None else len(str(value))


@scalar_function("UPPER")
def _fn_upper(value: object = None) -> object:
    return None if value is None else str(value).upper()


@scalar_function("LOWER")
def _fn_lower(value: object = None) -> object:
    return None if value is None else str(value).lower()


@scalar_function("ROUND")
def _fn_round(value: object = None, digits: object = 0) -> object:
    if value is None:
        return None
    return round(value, int(digits or 0))


@scalar_function("MOD")
def _fn_mod(left: object = None, right: object = None) -> object:
    if left is None or right is None or right == 0:
        return None
    return left % right


@scalar_function("SUBSTRING")
def _fn_substring(value: object = None, start: object = 1, length: object = None) -> object:
    if value is None:
        return None
    text = str(value)
    begin = max(int(start or 1) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


def evaluate(expression: ast.Expression, context: EvaluationContext) -> object:
    """Evaluate *expression* against the row in *context*."""
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.ColumnRef):
        return resolve_column(context.row, expression)
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' cannot be evaluated as a scalar expression")
    if isinstance(expression, ast.Parameter):
        raise ExecutionError("positional parameters are not bound")
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator.upper()
        if operator == "AND":
            return _logical_and(
                _to_bool(evaluate(expression.left, context)),
                _to_bool(evaluate(expression.right, context)),
            )
        if operator == "OR":
            return _logical_or(
                _to_bool(evaluate(expression.left, context)),
                _to_bool(evaluate(expression.right, context)),
            )
        left = evaluate(expression.left, context)
        right = evaluate(expression.right, context)
        if operator in {"=", "<>", "<", "<=", ">", ">="}:
            return _compare(operator, left, right)
        return _arithmetic(operator, left, right)
    if isinstance(expression, ast.UnaryOp):
        operand = evaluate(expression.operand, context)
        if expression.operator.upper() == "NOT":
            value = _to_bool(operand)
            return None if value is None else not value
        if operand is None:
            return None
        return -operand if expression.operator == "-" else +operand
    if isinstance(expression, ast.FunctionCall):
        name = expression.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            # Aggregates are computed by the aggregation operator, which stores
            # the result in the row under the printed expression text.
            from repro.sqlparser.printer import print_expression

            key = print_expression(expression)
            if key in context.row:
                return context.row[key]
            raise ExecutionError(f"aggregate {key!r} used outside an aggregation")
        implementation = _SCALAR_FUNCTIONS.get(name)
        if implementation is None:
            raise ExecutionError(f"unknown function {expression.name!r}")
        arguments = [evaluate(argument, context) for argument in expression.arguments]
        return implementation(*arguments)
    if isinstance(expression, ast.InList):
        value = evaluate(expression.expression, context)
        if value is None:
            return None
        saw_null = False
        for item in expression.items:
            candidate = evaluate(item, context)
            if candidate is None:
                saw_null = True
                continue
            comparison = _compare("=", value, candidate)
            if comparison:
                return not expression.negated
        if saw_null:
            return None
        return expression.negated
    if isinstance(expression, ast.InSubquery):
        return _evaluate_in_subquery(expression, context)
    if isinstance(expression, ast.Between):
        value = evaluate(expression.expression, context)
        low = evaluate(expression.low, context)
        high = evaluate(expression.high, context)
        lower_ok = _compare(">=", value, low)
        upper_ok = _compare("<=", value, high)
        result = _logical_and(lower_ok, upper_ok)
        if result is None:
            return None
        return (not result) if expression.negated else result
    if isinstance(expression, ast.Like):
        result = _like(
            evaluate(expression.expression, context),
            evaluate(expression.pattern, context),
        )
        if result is None:
            return None
        return (not result) if expression.negated else result
    if isinstance(expression, ast.IsNull):
        is_null = evaluate(expression.expression, context) is None
        return (not is_null) if expression.negated else is_null
    if isinstance(expression, ast.Case):
        if expression.operand is not None:
            operand = evaluate(expression.operand, context)
            for when in expression.whens:
                if _compare("=", operand, evaluate(when.condition, context)):
                    return evaluate(when.result, context)
        else:
            for when in expression.whens:
                if _to_bool(evaluate(when.condition, context)):
                    return evaluate(when.result, context)
        if expression.else_result is not None:
            return evaluate(expression.else_result, context)
        return None
    if isinstance(expression, ast.Cast):
        return _cast(evaluate(expression.expression, context), expression.target_type)
    if isinstance(expression, ast.ScalarSubquery):
        rows = _run_subquery(expression.query, context)
        if not rows:
            return None
        first = rows[0]
        return next(iter(first.values())) if first else None
    if isinstance(expression, ast.Exists):
        rows = _run_subquery(expression.query, context)
        result = bool(rows)
        return (not result) if expression.negated else result
    raise ExecutionError(f"cannot evaluate expression of type {type(expression).__name__}")


def _cast(value: object, target_type: str) -> object:
    if value is None:
        return None
    upper = target_type.upper()
    try:
        if upper in {"INT", "INTEGER", "BIGINT"}:
            return int(float(value))
        if upper in {"FLOAT", "REAL", "DOUBLE", "DOUBLE PRECISION", "DECIMAL", "NUMERIC"}:
            return float(value)
        if upper in {"TEXT", "VARCHAR", "CHAR"}:
            return str(value)
        if upper in {"BOOL", "BOOLEAN"}:
            return bool(value)
    except (TypeError, ValueError):
        return None
    return value


def _run_subquery(query: ast.SelectStatement, context: EvaluationContext) -> List[Row]:
    if context.subquery_executor is None:
        raise ExecutionError("subquery evaluation requires a subquery executor")
    return context.subquery_executor(query, context.row)


def _evaluate_in_subquery(
    expression: ast.InSubquery, context: EvaluationContext
) -> Optional[bool]:
    value = evaluate(expression.expression, context)
    rows = _run_subquery(expression.subquery, context)
    if value is None:
        return None if rows else expression.negated
    saw_null = False
    for row in rows:
        candidate = next(iter(row.values())) if row else None
        if candidate is None:
            saw_null = True
            continue
        if _compare("=", value, candidate):
            return not expression.negated
    if saw_null:
        return None
    return expression.negated


def evaluate_predicate(
    expression: Optional[ast.Expression], context: EvaluationContext
) -> Optional[bool]:
    """Evaluate a predicate, returning ``True`` / ``False`` / ``None``."""
    if expression is None:
        return True
    return _to_bool(evaluate(expression, context))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
#
# :func:`evaluate` re-discovers an expression's shape — a chain of
# ``isinstance`` checks plus operator-string dispatch — for *every row*.  The
# executor's inner loops (scan filters, join conditions, WHERE clauses of
# DML) evaluate one fixed expression over thousands of rows, so the dispatch
# can be done once: :func:`compile_expression` walks the tree a single time
# and returns a closure of closures that only performs the per-row work.
#
# The compiled form is semantically identical to :func:`evaluate` (including
# three-valued logic, NULL propagation, and error behaviour); expression
# kinds outside the hot set — subqueries, CASE, CAST, aggregates — fall back
# to an ``evaluate`` closure, so compilation is total.

_COMPARISON_OPERATORS = frozenset({"=", "<>", "<", "<=", ">", ">="})

#: Callable evaluating one compiled expression against a context.
CompiledExpression = Callable[[EvaluationContext], object]


def compile_expression(expression: ast.Expression) -> CompiledExpression:
    """Compile *expression* into a closure equivalent to ``evaluate``."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda context: value
    if isinstance(expression, ast.ColumnRef):
        # Pre-compute the row key; fall back to the slow resolver only when
        # the fast key is absent (case differences, unqualified references).
        key = (
            f"{expression.table}.{expression.column}"
            if expression.table
            else expression.column
        )

        def column(context, key=key, expression=expression):
            row = context.row
            if key in row:
                return row[key]
            return resolve_column(row, expression)

        return column
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator.upper()
        left = compile_expression(expression.left)
        right = compile_expression(expression.right)
        if operator == "AND":
            return lambda context: _logical_and(
                _to_bool(left(context)), _to_bool(right(context))
            )
        if operator == "OR":
            return lambda context: _logical_or(
                _to_bool(left(context)), _to_bool(right(context))
            )
        if operator in _COMPARISON_OPERATORS:
            return lambda context: _compare(operator, left(context), right(context))
        return lambda context: _arithmetic(operator, left(context), right(context))
    if isinstance(expression, ast.UnaryOp):
        operand = compile_expression(expression.operand)
        if expression.operator.upper() == "NOT":

            def negation(context):
                value = _to_bool(operand(context))
                return None if value is None else not value

            return negation
        negate = expression.operator == "-"

        def sign(context):
            value = operand(context)
            if value is None:
                return None
            return -value if negate else +value

        return sign
    if isinstance(expression, ast.IsNull):
        inner = compile_expression(expression.expression)
        if expression.negated:
            return lambda context: inner(context) is not None
        return lambda context: inner(context) is None
    if isinstance(expression, ast.Between):
        value_fn = compile_expression(expression.expression)
        low_fn = compile_expression(expression.low)
        high_fn = compile_expression(expression.high)
        negated = expression.negated

        def between(context):
            value = value_fn(context)
            result = _logical_and(
                _compare(">=", value, low_fn(context)),
                _compare("<=", value, high_fn(context)),
            )
            if result is None:
                return None
            return (not result) if negated else result

        return between
    if isinstance(expression, ast.Like):
        value_fn = compile_expression(expression.expression)
        pattern_fn = compile_expression(expression.pattern)
        negated = expression.negated

        def like(context):
            result = _like(value_fn(context), pattern_fn(context))
            if result is None:
                return None
            return (not result) if negated else result

        return like
    if isinstance(expression, ast.InList):
        value_fn = compile_expression(expression.expression)
        item_fns = [compile_expression(item) for item in expression.items]
        negated = expression.negated

        def in_list(context):
            value = value_fn(context)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                candidate = item_fn(context)
                if candidate is None:
                    saw_null = True
                    continue
                if _compare("=", value, candidate):
                    return not negated
            if saw_null:
                return None
            return negated

        return in_list
    if isinstance(expression, ast.FunctionCall):
        name = expression.name.upper()
        if name not in AGGREGATE_FUNCTIONS:
            implementation = _SCALAR_FUNCTIONS.get(name)
            if implementation is None:
                message = f"unknown function {expression.name!r}"
                def unknown(context):
                    raise ExecutionError(message)
                return unknown
            argument_fns = [
                compile_expression(argument) for argument in expression.arguments
            ]
            return lambda context: implementation(
                *[argument_fn(context) for argument_fn in argument_fns]
            )
        # Aggregates read the pre-computed value out of the row; defer to the
        # interpreter (which owns the printed-key protocol).
    return lambda context: evaluate(expression, context)


def compile_predicate(
    expression: Optional[ast.Expression],
) -> Callable[[EvaluationContext], Optional[bool]]:
    """Compile a predicate into a ``context -> True/False/None`` closure.

    Equivalent to :func:`evaluate_predicate` with the expression bound.
    """
    if expression is None:
        return lambda context: True
    compiled = compile_expression(expression)
    return lambda context: _to_bool(compiled(context))


# ---------------------------------------------------------------------------
# Batch (vectorized) expression compilation
# ---------------------------------------------------------------------------
#
# The compiled closures above still pay one closure call, one row dictionary,
# and one :class:`EvaluationContext` per row.  The vectorized executor
# (:mod:`repro.engine.vectorized`) processes whole column chunks, so
# expressions are compiled once more into *batch* closures: each takes a
# :class:`BatchContext` (parallel column lists) and returns one value list.
# Column references resolve once per batch instead of once per row — batches
# are uniform (a single key set), so per-batch resolution is exactly
# per-row resolution amortised.
#
# Semantics are identical to :func:`evaluate` element-by-element: the same
# three-valued logic, the same NULL propagation, the same error behaviour
# (an error raised for element *i* is the error ``evaluate`` would raise for
# row *i*).  Expression kinds outside the vectorized set — subqueries, CASE,
# CAST — fall back to per-row ``evaluate`` over materialized row dictionaries,
# so batch compilation is total.


class BatchContext:
    """A chunk of rows in columnar form: parallel value lists per column.

    ``columns`` maps row keys (``"alias.column"`` or output names) to value
    lists; every list has ``length`` elements.  ``rows()`` materializes the
    chunk as row dictionaries for the per-row fallback (built lazily, once).
    """

    __slots__ = ("columns", "length", "subquery_executor", "_rows")

    def __init__(
        self,
        columns: Dict[str, List[object]],
        length: int,
        subquery_executor: Optional[SubqueryExecutor] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.subquery_executor = subquery_executor
        self._rows: Optional[List[Row]] = None

    def rows(self) -> List[Row]:
        """The chunk as row dictionaries (key order = column order)."""
        if self._rows is None:
            if not self.columns:
                self._rows = [{} for _ in range(self.length)]
            else:
                keys = list(self.columns)
                self._rows = [
                    dict(zip(keys, values))
                    for values in zip(*self.columns.values())
                ]
        return self._rows


def _resolve_batch_key(columns: Dict[str, List[object]], reference: ast.ColumnRef) -> str:
    """The key of a batch's *columns* that *reference* resolves to (cf.
    :func:`resolve_column`).

    Batches are uniform, so resolving against the key set once is equivalent
    to resolving against each row; the fallback order (exact qualified,
    case-insensitive qualified, exact bare, suffix match, case-insensitive
    bare) mirrors :func:`resolve_column` including its first-match behaviour
    for ambiguous unqualified references.  The answer depends only on the
    key sequence and the reference.
    """
    if reference.table:
        qualified = f"{reference.table}.{reference.column}"
        if qualified in columns:
            return qualified
        lowered = qualified.lower()
        for key in columns:
            if key.lower() == lowered:
                return key
        raise ExecutionError(f"unknown column {qualified!r}")
    if reference.column in columns:
        return reference.column
    suffix = "." + reference.column.lower()
    for key in columns:
        if key.lower().endswith(suffix):
            return key
    lowered_column = reference.column.lower()
    for key in columns:
        if key.lower() == lowered_column:
            return key
    raise ExecutionError(f"unknown column {reference.column!r}")


#: How many batch schemas one compiled column reference remembers its key
#: for.  A plan node sees one or two; past the bound a schema resolves
#: afresh on every call.
_BINDING_MEMO_LIMIT = 64


#: Callable evaluating one compiled expression over a whole batch.
CompiledBatchExpression = Callable[[BatchContext], List[object]]


def _batch_constant(expression: ast.Expression):
    """``(True, value)`` when *expression* is a literal the array kernels can
    treat as one scalar constant (plain literals, signed numeric literals)."""
    if isinstance(expression, ast.Literal):
        return True, expression.value
    if (
        isinstance(expression, ast.UnaryOp)
        and expression.operator in ("-", "+")
        and isinstance(expression.operand, ast.Literal)
        and isinstance(expression.operand.value, (int, float))
        and not isinstance(expression.operand.value, bool)
    ):
        value = expression.operand.value
        return True, (-value if expression.operator == "-" else +value)
    return False, None


def _in_list_kernel(values, literals: List[object], negated: bool):
    """``values [NOT] IN (literals)`` as ``=`` kernels folded with Kleene OR
    (a NULL literal compares all-NULL), or ``None`` when any kernel bails."""
    result = None
    for literal in literals:
        matched = arrays.compare("=", values, literal)
        if matched is not None and result is not None:
            matched = arrays.kleene_or(result, matched)
        if matched is None:
            return None
        result = matched
    return arrays.kleene_not(result) if negated else result


def compile_expression_batch(expression: ast.Expression) -> CompiledBatchExpression:
    """Compile *expression* into a closure evaluating whole column chunks."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda context: [value] * context.length
    if isinstance(expression, ast.ColumnRef):
        key = (
            f"{expression.table}.{expression.column}"
            if expression.table
            else expression.column
        )

        # Off the exact key, the key the reference resolves to is remembered
        # per batch schema (the key tuple decides resolution), so a hot plan
        # scans its keys once, not once per execution.  A failure is never
        # remembered: an unknown column raises on every call.  The memo is
        # created on the first miss; most references never miss.
        bindings: Optional[Dict[tuple, str]] = None

        def column(context, key=key, reference=expression):
            nonlocal bindings
            columns = context.columns
            values = columns.get(key)
            if values is not None:
                return values
            if bindings is None:
                bindings = {}
            schema = tuple(columns)
            bound = bindings.get(schema)
            if bound is None:
                bound = _resolve_batch_key(columns, reference)
                if len(bindings) < _BINDING_MEMO_LIMIT:
                    bindings[schema] = bound
            return columns[bound]

        return column
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator.upper()
        left = compile_expression_batch(expression.left)
        right = compile_expression_batch(expression.right)
        if operator == "AND":

            def conjunction(context):
                left_values = left(context)
                right_values = right(context)
                result = arrays.kleene_and(left_values, right_values)
                if result is not None:
                    return result
                return [
                    _logical_and(_to_bool(l), _to_bool(r))
                    for l, r in zip(left_values, right_values)
                ]

            return conjunction
        if operator == "OR":

            def disjunction(context):
                left_values = left(context)
                right_values = right(context)
                result = arrays.kleene_or(left_values, right_values)
                if result is not None:
                    return result
                return [
                    _logical_or(_to_bool(l), _to_bool(r))
                    for l, r in zip(left_values, right_values)
                ]

            return disjunction
        # Literal operands stay scalar for the kernels (no [value] * length
        # materialization on the fast path); the fallback loops expand them.
        left_const, left_value = _batch_constant(expression.left)
        right_const, right_value = _batch_constant(expression.right)
        if operator in ("=", "<>"):
            flip = operator == "<>"

            def equality(context):
                left_values = left_value if left_const else left(context)
                right_values = right_value if right_const else right(context)
                result = arrays.compare(operator, left_values, right_values)
                if result is not None:
                    return result
                if left_const:
                    left_values = [left_value] * context.length
                if right_const:
                    right_values = [right_value] * context.length
                output = []
                append = output.append
                for l, r in zip(left_values, right_values):
                    if l is None or r is None:
                        append(None)
                    else:
                        try:
                            append((l != r) if flip else (l == r))
                        except TypeError:
                            append(None)
                return output

            return equality
        if operator in _COMPARISON_OPERATORS:

            def comparison(context):
                left_values = left_value if left_const else left(context)
                right_values = right_value if right_const else right(context)
                result = arrays.compare(operator, left_values, right_values)
                if result is not None:
                    return result
                if left_const:
                    left_values = [left_value] * context.length
                if right_const:
                    right_values = [right_value] * context.length
                return [
                    _compare(operator, l, r)
                    for l, r in zip(left_values, right_values)
                ]

            return comparison

        def arithmetic(context):
            left_values = left_value if left_const else left(context)
            right_values = right_value if right_const else right(context)
            result = arrays.arithmetic(operator, left_values, right_values)
            if result is not None:
                return result
            if left_const:
                left_values = [left_value] * context.length
            if right_const:
                right_values = [right_value] * context.length
            return [
                _arithmetic(operator, l, r)
                for l, r in zip(left_values, right_values)
            ]

        return arithmetic
    if isinstance(expression, ast.UnaryOp):
        operand = compile_expression_batch(expression.operand)
        if expression.operator.upper() == "NOT":

            def negation(context):
                values = operand(context)
                result = arrays.kleene_not(values)
                if result is not None:
                    return result
                output = []
                append = output.append
                for value in values:
                    truth = _to_bool(value)
                    append(None if truth is None else not truth)
                return output

            return negation
        negate = expression.operator == "-"

        def sign(context):
            values = operand(context)
            if isinstance(values, arrays.ArrayColumn):
                if not negate:
                    return values  # unary + is the identity on numeric columns
                result = arrays.negate(values)
                if result is not None:
                    return result
            return [
                None if value is None else (-value if negate else +value)
                for value in values
            ]

        return sign
    if isinstance(expression, ast.IsNull):
        inner = compile_expression_batch(expression.expression)
        negated = expression.negated

        def null_check(context):
            values = inner(context)
            result = arrays.is_null(values, negated)
            if result is not None:
                return result
            if negated:
                return [value is not None for value in values]
            return [value is None for value in values]

        return null_check
    if isinstance(expression, ast.Between):
        value_fn = compile_expression_batch(expression.expression)
        low_fn = compile_expression_batch(expression.low)
        high_fn = compile_expression_batch(expression.high)
        low_const, low_value = _batch_constant(expression.low)
        high_const, high_value = _batch_constant(expression.high)
        negated = expression.negated

        def between(context):
            values = value_fn(context)
            lows = low_value if low_const else low_fn(context)
            highs = high_value if high_const else high_fn(context)
            if isinstance(values, arrays.ArrayColumn):
                lower_ok = arrays.compare(">=", values, lows)
                upper_ok = arrays.compare("<=", values, highs)
                if lower_ok is not None and upper_ok is not None:
                    result = arrays.kleene_and(lower_ok, upper_ok)
                    if result is not None:
                        if not negated:
                            return result
                        flipped = arrays.kleene_not(result)
                        if flipped is not None:
                            return flipped
            if low_const:
                lows = [low_value] * context.length
            if high_const:
                highs = [high_value] * context.length
            output = []
            append = output.append
            for value, low, high in zip(values, lows, highs):
                result = _logical_and(
                    _compare(">=", value, low), _compare("<=", value, high)
                )
                if result is None:
                    append(None)
                else:
                    append((not result) if negated else result)
            return output

        return between
    if isinstance(expression, ast.Like):
        value_fn = compile_expression_batch(expression.expression)
        pattern_fn = compile_expression_batch(expression.pattern)
        negated = expression.negated

        def like(context):
            output = []
            append = output.append
            for value, pattern in zip(value_fn(context), pattern_fn(context)):
                result = _like(value, pattern)
                if result is None:
                    append(None)
                else:
                    append((not result) if negated else result)
            return output

        return like
    if isinstance(expression, ast.InList):
        value_fn = compile_expression_batch(expression.expression)
        item_fns = [compile_expression_batch(item) for item in expression.items]
        negated = expression.negated
        # Numeric (or NULL) literal items lower to ``=`` kernels folded with
        # Kleene OR, so an enclosing AND stays on the array path.
        constants = [_batch_constant(item) for item in expression.items]
        lowerable = all(
            known and (value is None or type(value) in (int, float))
            for known, value in constants
        )
        literals = [value for _, value in constants] if lowerable else []

        def in_list(context):
            values = value_fn(context)
            if literals and isinstance(values, arrays.ArrayColumn):
                result = _in_list_kernel(values, literals, negated)
                if result is not None:
                    return result
            item_columns = [item_fn(context) for item_fn in item_fns]
            output = []
            append = output.append
            for position, value in enumerate(values):
                if value is None:
                    append(None)
                    continue
                saw_null = False
                matched = False
                for item_column in item_columns:
                    candidate = item_column[position]
                    if candidate is None:
                        saw_null = True
                        continue
                    if _compare("=", value, candidate):
                        append(not negated)
                        matched = True
                        break
                if matched:
                    continue
                append(None if saw_null else negated)
            return output

        return in_list
    if isinstance(expression, ast.FunctionCall):
        name = expression.name.upper()
        if name not in AGGREGATE_FUNCTIONS:
            implementation = _SCALAR_FUNCTIONS.get(name)
            if implementation is None:
                message = f"unknown function {expression.name!r}"

                def unknown(context):
                    if context.length:
                        raise ExecutionError(message)
                    return []

                return unknown
            argument_fns = [
                compile_expression_batch(argument)
                for argument in expression.arguments
            ]
            if not argument_fns:
                return lambda context: [
                    implementation() for _ in range(context.length)
                ]
            return lambda context: [
                implementation(*values)
                for values in zip(*[fn(context) for fn in argument_fns])
            ]
        # An aggregate reference reads the column the aggregation below
        # stored under its printed text.
        from repro.sqlparser.printer import print_expression

        key = print_expression(expression)

        def aggregate_reference(context):
            values = context.columns.get(key)
            if values is None and context.length:
                raise ExecutionError(f"aggregate {key!r} used outside an aggregation")
            return [] if values is None else values

        return aggregate_reference
    # Everything else — subqueries, CASE, CAST, parameters — evaluates per
    # row over materialized dictionaries.
    def fallback(context):
        hook = context.subquery_executor
        return [
            evaluate(expression, EvaluationContext(row, hook))
            for row in context.rows()
        ]

    return fallback


#: Expression kinds whose batch evaluation yields only True / False / None.
def _yields_boolean(expression: ast.Expression) -> bool:
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator.upper()
        return operator in _COMPARISON_OPERATORS or operator in ("AND", "OR")
    if isinstance(expression, ast.UnaryOp):
        return expression.operator.upper() == "NOT"
    return isinstance(
        expression, (ast.IsNull, ast.Between, ast.Like, ast.InList)
    )


def compile_predicate_batch(
    expression: Optional[ast.Expression],
) -> Callable[[BatchContext], List[int]]:
    """Compile a predicate into a **selection vector** builder.

    The returned closure evaluates the predicate over a whole batch and
    returns the positions whose three-valued result is true — exactly the
    rows :func:`evaluate_predicate` would keep (``False`` and ``NULL`` rows
    are filtered out alike).
    """
    if expression is None:
        return lambda context: list(range(context.length))
    compiled = compile_expression_batch(expression)
    if _yields_boolean(expression):

        def select_boolean(context):
            values = compiled(context)
            selection = arrays.selection_vector(values)
            if selection is not None:
                return selection
            # The compiled closure can only produce True / False / None.
            return [
                position for position, value in enumerate(values) if value is True
            ]

        return select_boolean

    def select(context):
        values = compiled(context)
        selection = arrays.selection_vector(values)
        if selection is not None:
            return selection
        return [
            position for position, value in enumerate(values) if _to_bool(value)
        ]

    return select
