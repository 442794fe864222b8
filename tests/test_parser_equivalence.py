"""Equivalence of the precedence-climbing expression parser with the
historical recursive-descent chain.

The expression grammar used to be eight nested methods, one per precedence
level (``_parse_or`` … ``_parse_unary``).  It was replaced by one
precedence-climbing loop (``Parser._parse_binary``) that must be drop-in
compatible, so the old chain — with the token helpers and the primary
parser it was written against — is kept here verbatim as a test fixture
(``LegacyParser``).  The statement-level code the two share is unchanged.  The tests parse the
generator corpus, the TPC-H queries, every SQL literal under ``tests/`` and
``examples/``, and hypothesis-built expressions through both, asserting
equal ASTs (dataclass ``==``), equal ``statement_tables``, and, on failure,
the same exception type and message.

The one intentional divergence is the expression-depth limit: past
``MAX_EXPRESSION_DEPTH`` the climber raises :class:`ParseError` where the
old chain either hit ``RecursionError`` or returned a tree too deep for the
planner and executors (``TestExpressionDepthLimit`` in
``tests/test_sqlparser.py``).
"""

import ast as python_ast
import pathlib
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarking import tpch
from repro.errors import ParseError
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.parser import _AGGREGATE_KEYWORDS, Parser
from repro.sqlparser.tokens import Token, TokenType
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator

REPO = pathlib.Path(__file__).resolve().parent.parent


class LegacyParser(Parser):
    """The pre-climber expression grammar, verbatim (fixture, not production)."""

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _expect_keyword(self, *keywords: str) -> Token:
        token = self._peek()
        if not token.matches_keyword(*keywords):
            raise ParseError(
                f"expected {' or '.join(keywords)} but found {token.value!r} "
                f"at position {token.position}",
                token,
            )
        return self._advance()

    def _expect_punctuation(self, char: str) -> Token:
        token = self._peek()
        if not token.is_punctuation(char):
            raise ParseError(
                f"expected {char!r} but found {token.value!r} at position {token.position}",
                token,
            )
        return self._advance()

    def _accept_keyword(self, *keywords: str) -> Optional[Token]:
        if self._peek().matches_keyword(*keywords):
            return self._advance()
        return None

    def _accept_punctuation(self, char: str) -> bool:
        if self._peek().is_punctuation(char):
            self._advance()
            return True
        return False

    def parse_expression(self) -> ast.Expression:
        """Parse a scalar expression (the OR level)."""
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            token = self._peek()
            negated = False
            if token.matches_keyword("NOT") and self._peek(1).matches_keyword(
                "IN", "BETWEEN", "LIKE"
            ):
                self._advance()
                token = self._peek()
                negated = True
            if token.is_operator("=", "<>", "!=", "<", "<=", ">", ">="):
                operator = self._advance().value
                operator = "<>" if operator == "!=" else operator
                left = ast.BinaryOp(operator, left, self._parse_additive())
                continue
            if token.matches_keyword("IS"):
                self._advance()
                is_negated = bool(self._accept_keyword("NOT"))
                self._expect_keyword("NULL")
                left = ast.IsNull(left, negated=is_negated)
                continue
            if token.matches_keyword("IN"):
                self._advance()
                self._expect_punctuation("(")
                if self._peek().matches_keyword("SELECT"):
                    subquery = self.parse_select()
                    self._expect_punctuation(")")
                    left = ast.InSubquery(left, subquery, negated)
                else:
                    items = [self.parse_expression()]
                    while self._accept_punctuation(","):
                        items.append(self.parse_expression())
                    self._expect_punctuation(")")
                    left = ast.InList(left, items, negated)
                continue
            if token.matches_keyword("BETWEEN"):
                self._advance()
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.Between(left, low, high, negated)
                continue
            if token.matches_keyword("LIKE"):
                self._advance()
                left = ast.Like(left, self._parse_additive(), negated)
                continue
            break
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._peek().is_operator("+", "-", "||"):
            operator = self._advance().value
            left = ast.BinaryOp(operator, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._peek().is_operator("*", "/", "%"):
            operator = self._advance().value
            left = ast.BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.is_operator("-", "+"):
            self._advance()
            return ast.UnaryOp(token.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            value: object
            if any(ch in text for ch in ".eE"):
                value = float(text)
            else:
                value = int(text)
            return ast.Literal(value)

        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)

        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)

        if token.matches_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)

        if token.matches_keyword("CASE"):
            return self._parse_case()

        if token.matches_keyword("CAST"):
            self._advance()
            self._expect_punctuation("(")
            expression = self.parse_expression()
            self._expect_keyword("AS")
            target_type = self._parse_type_name()
            self._expect_punctuation(")")
            return ast.Cast(expression, target_type)

        if token.matches_keyword("EXISTS"):
            self._advance()
            self._expect_punctuation("(")
            query = self.parse_select()
            self._expect_punctuation(")")
            return ast.Exists(query)

        if token.is_punctuation("("):
            self._advance()
            if self._peek().matches_keyword("SELECT"):
                query = self.parse_select()
                self._expect_punctuation(")")
                return ast.ScalarSubquery(query)
            expression = self.parse_expression()
            self._expect_punctuation(")")
            return expression

        if token.type is TokenType.KEYWORD and token.value in _AGGREGATE_KEYWORDS:
            return self._parse_function_call(token.value)

        if token.type is TokenType.KEYWORD and self._peek(1).is_punctuation("("):
            # Functions spelled as keywords, e.g. EXTRACT, SUBSTRING.
            return self._parse_function_call(token.value)

        if token.type is TokenType.IDENTIFIER:
            if self._peek(1).is_punctuation("("):
                return self._parse_function_call(token.value)
            self._advance()
            if self._peek().is_punctuation(".") and self._peek(1).type in (
                TokenType.IDENTIFIER,
                TokenType.KEYWORD,
            ):
                self._advance()
                column = self._advance().value
                return ast.ColumnRef(column=column, table=token.value)
            return ast.ColumnRef(column=token.value)

        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}", token
        )


def legacy_iter_expressions(expression):
    """The recursive ``yield from`` walk ``iter_expressions`` replaced (fixture)."""
    if expression is None:
        return
    yield expression
    if isinstance(expression, ast.BinaryOp):
        children = (expression.left, expression.right)
    elif isinstance(expression, ast.UnaryOp):
        children = (expression.operand,)
    elif isinstance(expression, ast.FunctionCall):
        children = tuple(expression.arguments)
    elif isinstance(expression, ast.InList):
        children = (expression.expression, *expression.items)
    elif isinstance(expression, ast.InSubquery):
        children = (expression.expression,)
    elif isinstance(expression, ast.Between):
        children = (expression.expression, expression.low, expression.high)
    elif isinstance(expression, ast.Like):
        children = (expression.expression, expression.pattern)
    elif isinstance(expression, ast.IsNull):
        children = (expression.expression,)
    elif isinstance(expression, ast.Case):
        children = (
            expression.operand,
            *[when.condition for when in expression.whens],
            *[when.result for when in expression.whens],
            expression.else_result,
        )
    elif isinstance(expression, ast.Cast):
        children = (expression.expression,)
    else:
        children = ()
    for child in children:
        yield from legacy_iter_expressions(child)


def every_expression(node):
    """Every expression reachable from *node* through any dataclass field."""
    if isinstance(node, ast.Expression):
        yield node
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from every_expression(item)
    elif isinstance(node, ast.Node):
        for value in vars(node).values():
            yield from every_expression(value)


def outcome(parser_class, sql: str):
    """What parsing *sql* produces: the ASTs and tables, or the error."""
    try:
        parser = parser_class(sql)
        return ("ok", parser.parse_statements(), parser.statement_tables)
    except Exception as error:  # compared below, never swallowed
        return ("error", type(error), str(error))


def assert_equivalent(sql: str) -> None:
    assert outcome(Parser, sql) == outcome(LegacyParser, sql), f"divergence on {sql!r}"


# -------------------------------------------------------------------- corpora


def generator_corpus() -> List[str]:
    statements: List[str] = []
    for seed in range(1, 7):
        generator = RandomQueryGenerator(seed=seed, config=GeneratorConfig(max_tables=3))
        statements.extend(generator.schema_statements())
        for _ in range(60):
            query = generator.select_query()
            statements.append(query)
            statements.append(generator.restricted_query(query, generator.tables[0]))
        for _ in range(15):
            statements.append(generator.mutation_statement())
    return statements


_STATEMENT_STARTS = ("SELECT", "INSERT", "CREATE", "UPDATE", "DELETE", "DROP", "EXPLAIN", "(")


def literal_corpus() -> List[str]:
    """Every string literal under ``tests/`` and ``examples/`` that reads as SQL."""
    texts = set()
    for directory in ("tests", "examples"):
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = python_ast.parse(path.read_text(encoding="utf-8"))
            for node in python_ast.walk(tree):
                if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                    if node.value.lstrip().upper().startswith(_STATEMENT_STARTS):
                        texts.add(node.value)
    return sorted(texts)


def test_generator_corpus_parses_identically():
    texts = generator_corpus()
    assert len(texts) > 800
    for text in texts:
        assert_equivalent(text)


def test_iter_expressions_walks_in_the_recursive_order():
    walked = 0
    for text in generator_corpus() + list(tpch.QUERIES.values()):
        for statement in Parser(text).parse_statements():
            for expression in every_expression(statement):
                expected = [id(node) for node in legacy_iter_expressions(expression)]
                assert [id(node) for node in ast.iter_expressions(expression)] == expected
                walked += 1
    assert walked > 10000


def test_tpch_queries_parse_identically():
    assert len(tpch.QUERIES) == 22
    for text in tpch.QUERIES.values():
        assert_equivalent(text)


def test_repository_sql_literals_parse_identically():
    texts = literal_corpus()
    assert len(texts) > 300
    failures = 0
    for text in texts:
        assert_equivalent(text)
        failures += outcome(Parser, text)[0] == "error"
    # The corpus exercises the error paths too, not only the happy one.
    assert failures > 0


# ------------------------------------------------------- hypothesis expressions

_ATOMS = st.sampled_from(
    [
        "c0", "t0.c1", "t0.SUM", "1", "2.5", "1e3", ".5", "0", "'a'", "NULL", "TRUE",
        "FALSE", "?", "$1", "COUNT(*)", "COUNT(DISTINCT c0)", "MAX(c0)",
        "SUBSTRING(c0, 1)", "f()", "EXISTS (SELECT 1)", "(SELECT c0 FROM t1)",
    ]
)
_BINARY = st.sampled_from(
    ["OR", "AND", "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "||", "*", "/", "%"]
)


def _combine(children):
    left, right, third = children
    return st.one_of(
        st.tuples(_BINARY, st.booleans()).map(
            lambda pair: f"({left} {pair[0]} {right})" if pair[1] else f"{left} {pair[0]} {right}"
        ),
        st.just(f"NOT {left}"),
        st.sampled_from(["-", "+", "- -", "-+"]).map(lambda sign: f"{sign} {left}"),
        st.sampled_from(["IS NULL", "IS NOT NULL"]).map(lambda tail: f"{left} {tail}"),
        st.sampled_from(["IN", "NOT IN"]).map(lambda op: f"{left} {op} ({right}, {third})"),
        st.sampled_from(["BETWEEN", "NOT BETWEEN"]).map(
            lambda op: f"{left} {op} {right} AND {third}"
        ),
        st.sampled_from(["LIKE", "NOT LIKE"]).map(lambda op: f"{left} {op} {right}"),
        st.just(f"({left})"),
        st.just(f"(({left}))"),
        st.just(f"ABS({left})"),
        st.just(f"CASE WHEN {left} THEN {right} ELSE {third} END"),
        st.just(f"CAST({left} AS INT)"),
    )


_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda children: st.tuples(children, children, children).flatmap(_combine),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_EXPRESSIONS, _EXPRESSIONS)
def test_hypothesis_expressions_parse_identically(select_item, predicate):
    assert_equivalent(f"SELECT {select_item} FROM t0 WHERE {predicate}")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ATOMS, _BINARY, st.sampled_from(
    ["NOT", "IS", "NULL", "IN", "BETWEEN", "LIKE", "(", ")", ",", "-", "AND", ".",
     "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "AS", "EXISTS", "SELECT", "*"]
)), min_size=1, max_size=12))
def test_hypothesis_token_soup_fails_identically(words):
    # Mostly malformed: the error type and message must match too.
    assert_equivalent("SELECT " + " ".join(words))


def test_precedence_cases_parse_identically():
    cases = [
        "SELECT a OR b AND c OR d",
        "SELECT NOT a = b AND NOT NOT c",
        "SELECT a = b = c",
        "SELECT a < b IS NULL",
        "SELECT a + b * c - d / e % f || g",
        "SELECT - - a * - b",
        "SELECT a NOT IN (1, 2) = b",
        "SELECT a NOT BETWEEN b + 1 AND c * 2 AND d",
        "SELECT a NOT LIKE 'x' OR b LIKE c || 'y'",
        "SELECT a IS NOT NULL IS NULL",
        "SELECT a = NOT b",
        "SELECT a = NOT (b)",
        "SELECT NOT a NOT",
        "SELECT a BETWEEN 1 OR 2",
        "SELECT a IN ()",
        "SELECT (((a)))",
        "SELECT a IN (SELECT 1) AND b NOT IN (SELECT c FROM t1)",
        "SELECT a != b, a <> b",
        "SELECT * FROM t WHERE NOT EXISTS (SELECT 1) OR x IS NULL",
        "SELECT a -",
        "SELECT a AND",
        "SELECT a IS NOT 1",
    ]
    for case in cases:
        assert_equivalent(case)
