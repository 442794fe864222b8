"""Tests for the SQL lexer, parser, and printer."""

import pytest

from repro.dialects import create_dialect
from repro.errors import LexerError, ParseError
from repro.sqlparser import ast, parse_one, parse_sql, print_statement, tokenize
from repro.sqlparser.parser import MAX_EXPRESSION_DEPTH
from repro.sqlparser.printer import print_expression
from repro.sqlparser.tokens import TokenType


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT c0 FROM t0")
        kinds = [token.type for token in tokens]
        assert kinds[:4] == [
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
        ]
        assert tokens[-1].type is TokenType.EOF

    def test_string_literal_with_escape(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_numbers(self):
        tokens = tokenize("SELECT 1, 2.5, 1e3")
        values = [token.value for token in tokens if token.type is TokenType.NUMBER]
        assert values == ["1", "2.5", "1e3"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- comment\n/* block */ , 2")
        numbers = [token for token in tokens if token.type is TokenType.NUMBER]
        assert len(numbers) == 2

    def test_operators(self):
        tokens = tokenize("a <> b >= c <= d != e")
        operators = [token.value for token in tokens if token.type is TokenType.OPERATOR]
        assert operators == ["<>", ">=", "<=", "!="]

    def test_quoted_identifiers(self):
        tokens = tokenize('SELECT "weird name", `backtick`')
        identifiers = [t.value for t in tokens if t.type is TokenType.IDENTIFIER]
        assert identifiers == ["weird name", "backtick"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("SELECT @")


class TestParserStatements:
    def test_create_table(self):
        statement = parse_one("CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 TEXT NOT NULL, c2 FLOAT DEFAULT 0)")
        assert isinstance(statement, ast.CreateTable)
        assert [column.name for column in statement.columns] == ["c0", "c1", "c2"]
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null

    def test_create_table_table_level_pk(self):
        statement = parse_one("CREATE TABLE t0 (c0 INT, c1 INT, PRIMARY KEY (c0))")
        assert statement.columns[0].primary_key

    def test_create_index(self):
        statement = parse_one("CREATE UNIQUE INDEX i0 ON t0 (c0, c1)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.unique and statement.columns == ["c0", "c1"]

    def test_drop_table(self):
        statement = parse_one("DROP TABLE IF EXISTS t0")
        assert isinstance(statement, ast.DropTable) and statement.if_exists

    def test_insert_values(self):
        statement = parse_one("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, NULL)")
        assert isinstance(statement, ast.Insert)
        assert len(statement.rows) == 2

    def test_insert_select(self):
        statement = parse_one("INSERT INTO t0 SELECT c0 FROM t1")
        assert statement.select is not None

    def test_update(self):
        statement = parse_one("UPDATE t0 SET c0 = 1, c1 = c1 + 1 WHERE c0 > 5")
        assert isinstance(statement, ast.Update)
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse_one("DELETE FROM t0 WHERE c0 IS NULL")
        assert isinstance(statement, ast.Delete)

    def test_explain_options(self):
        statement = parse_one("EXPLAIN (FORMAT JSON, SUMMARY TRUE) SELECT 1")
        assert isinstance(statement, ast.Explain)
        assert statement.format == "json"

    def test_explain_analyze(self):
        statement = parse_one("EXPLAIN ANALYZE SELECT 1")
        assert statement.analyze

    def test_multiple_statements(self):
        statements = parse_sql("SELECT 1; SELECT 2;")
        assert len(statements) == 2

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse_one("GRANT ALL ON t0 TO alice")


class TestParserSelect:
    def test_simple_select(self):
        statement = parse_one("SELECT c0, c1 AS x FROM t0 WHERE c0 < 5")
        core = statement.body
        assert len(core.items) == 2
        assert core.items[1].alias == "x"

    def test_star_and_qualified_star(self):
        statement = parse_one("SELECT *, t0.* FROM t0")
        assert isinstance(statement.body.items[0].expression, ast.Star)
        assert statement.body.items[1].expression.table == "t0"

    def test_joins(self):
        statement = parse_one(
            "SELECT * FROM a INNER JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y CROSS JOIN d"
        )
        join = statement.body.from_clause
        assert isinstance(join, ast.Join)
        assert join.join_type == "CROSS"
        assert join.left.join_type == "LEFT"

    def test_comma_join(self):
        statement = parse_one("SELECT * FROM a, b WHERE a.x = b.x")
        assert isinstance(statement.body.from_clause, ast.Join)

    def test_using_clause(self):
        statement = parse_one("SELECT * FROM a JOIN b USING (x)")
        assert statement.body.from_clause.using_columns == ["x"]

    def test_subquery_in_from(self):
        statement = parse_one("SELECT * FROM (SELECT c0 FROM t0) AS sub WHERE sub.c0 > 1")
        assert isinstance(statement.body.from_clause, ast.SubqueryRef)

    def test_group_by_having(self):
        statement = parse_one(
            "SELECT c0, COUNT(*) FROM t0 GROUP BY c0 HAVING COUNT(*) > 3"
        )
        assert len(statement.body.group_by) == 1
        assert statement.body.having is not None

    def test_order_limit_offset(self):
        statement = parse_one("SELECT c0 FROM t0 ORDER BY c0 DESC, c1 LIMIT 5 OFFSET 2")
        assert statement.order_by[0].descending
        assert isinstance(statement.limit, ast.Literal)
        assert isinstance(statement.offset, ast.Literal)

    def test_set_operations(self):
        statement = parse_one("SELECT c0 FROM a UNION SELECT c0 FROM b UNION ALL SELECT c0 FROM c")
        body = statement.body
        assert isinstance(body, ast.SetOperation)
        assert body.operator == "UNION ALL"
        assert body.left.operator == "UNION"
        assert len(statement.cores()) == 3

    def test_distinct(self):
        statement = parse_one("SELECT DISTINCT c0 FROM t0")
        assert statement.body.distinct

    def test_expression_precedence(self):
        statement = parse_one("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        where = statement.body.where
        assert where.operator == "OR"
        assert where.right.operator == "AND"

    def test_in_between_like_isnull(self):
        statement = parse_one(
            "SELECT * FROM t WHERE a IN (1, 2) AND b NOT BETWEEN 1 AND 5 "
            "AND c LIKE 'x%' AND d IS NOT NULL"
        )
        conjuncts = ast.split_conjuncts(statement.body.where)
        assert len(conjuncts) == 4
        assert isinstance(conjuncts[0], ast.InList)
        assert conjuncts[1].negated
        assert isinstance(conjuncts[2], ast.Like)
        assert conjuncts[3].negated

    def test_subquery_expressions(self):
        statement = parse_one(
            "SELECT * FROM t WHERE a IN (SELECT x FROM s) AND EXISTS (SELECT 1 FROM u) "
            "AND b > (SELECT MAX(x) FROM s)"
        )
        conjuncts = ast.split_conjuncts(statement.body.where)
        assert isinstance(conjuncts[0], ast.InSubquery)
        assert isinstance(conjuncts[1], ast.Exists)
        assert isinstance(conjuncts[2].right, ast.ScalarSubquery)

    def test_case_cast_functions(self):
        statement = parse_one(
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END, CAST(a AS TEXT), GREATEST(a, b) FROM t"
        )
        items = statement.body.items
        assert isinstance(items[0].expression, ast.Case)
        assert isinstance(items[1].expression, ast.Cast)
        assert isinstance(items[2].expression, ast.FunctionCall)

    def test_aggregate_distinct(self):
        statement = parse_one("SELECT COUNT(DISTINCT c0) FROM t0")
        call = statement.body.items[0].expression
        assert call.distinct

    def test_parse_error_reports_token(self):
        with pytest.raises(ParseError):
            parse_one("SELECT FROM")


class TestAstUtilities:
    def test_split_and_conjoin(self):
        statement = parse_one("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
        conjuncts = ast.split_conjuncts(statement.body.where)
        assert len(conjuncts) == 3
        rebuilt = ast.conjoin(conjuncts)
        assert len(ast.split_conjuncts(rebuilt)) == 3

    def test_referenced_columns(self):
        statement = parse_one("SELECT * FROM t WHERE t.a = 1 AND b + c > 2")
        columns = {c.column for c in ast.referenced_columns(statement.body.where)}
        assert columns == {"a", "b", "c"}

    def test_contains_aggregate(self):
        statement = parse_one("SELECT SUM(a) + 1 FROM t")
        assert ast.contains_aggregate(statement.body.items[0].expression)

    def test_base_tables(self):
        statement = parse_one("SELECT * FROM a JOIN (SELECT * FROM b) AS s ON a.x = s.x")
        tables = [t.name for t in ast.base_tables(statement.body.from_clause)]
        assert tables == ["a", "b"]

    def test_split_conjuncts_is_linear_and_ordered_on_long_chains(self):
        # 3 000 conjuncts used to recurse (RecursionError) and copy lists
        # quadratically; built here without the parser, which limits depth.
        conjuncts = [ast.BinaryOp("=", ast.ColumnRef(f"c{i}"), ast.Literal(i)) for i in range(3000)]
        assert ast.split_conjuncts(ast.conjoin(conjuncts)) == conjuncts
        right_deep = conjuncts[-1]
        for conjunct in reversed(conjuncts[:-1]):
            right_deep = ast.BinaryOp("AND", conjunct, right_deep)
        assert ast.split_conjuncts(right_deep) == conjuncts

    def test_iter_expressions_is_pre_order(self):
        expression = parse_one(
            "SELECT CASE WHEN a THEN b WHEN c THEN d ELSE e END + f(g, h) "
            "FROM t WHERE x NOT BETWEEN y AND z"
        ).body.items[0].expression
        names = [
            node.column if isinstance(node, ast.ColumnRef) else type(node).__name__
            for node in ast.iter_expressions(expression)
        ]
        assert names == ["BinaryOp", "Case", "a", "c", "b", "d", "e", "FunctionCall", "g", "h"]


def _parens(levels):
    return "SELECT " + "(" * levels + "1" + ")" * levels


class TestExpressionDepthLimit:
    """Deep SQL is a typed ``ParseError``, never a ``RecursionError``."""

    @staticmethod
    def _dialect(executor):
        dialect = create_dialect("postgresql", executor=executor)
        dialect.execute("CREATE TABLE t (c0 INT)")
        dialect.execute("INSERT INTO t (c0) VALUES (1), (2), (3)")
        return dialect

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_roadmap_parenthesised_input_runs(self, executor):
        assert parse_sql(_parens(120))
        assert self._dialect(executor).execute(_parens(120)) == [{"1": 1}]

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    @pytest.mark.parametrize(
        "sql",
        [
            _parens(200),
            _parens(5000),
            "SELECT * FROM t WHERE 1=1" + " AND 1=1" * 2999,
            "SELECT " + "NOT " * 5000 + "TRUE",
            "SELECT " + "- " * 5000 + "1",
            "SELECT " + "ABS(" * 1000 + "1" + ")" * 1000,
            "SELECT " + "(SELECT " * 200 + "1" + ")" * 200,
            "(" * 600 + "SELECT 1" + ")" * 600,
            "SELECT c0 FROM " + "(" * 600 + "SELECT 1" + ")" * 600,
            "SELECT c0 FROM " + "(t JOIN " * 600 + "t" + " ON 1=1)" * 600,
        ],
        ids=[
            "parens-200", "parens-5000", "and-3000", "not-5000", "minus-5000",
            "call-1000", "subquery-200", "set-operation-arm-600",
            "from-subquery-600", "from-join-600",
        ],
    )
    def test_too_deep_is_a_parse_error(self, sql, executor):
        with pytest.raises(ParseError, match="nested deeper than 200 levels"):
            parse_sql(sql)
        dialect = self._dialect(executor)
        with pytest.raises(ParseError, match="nested deeper than 200 levels"):
            dialect.execute(sql)
        assert dialect.execute("SELECT c0 FROM t WHERE c0 > 1") == [{"c0": 2}, {"c0": 3}]

    def test_queries_at_the_limit_plan_and_run_on_both_executors(self):
        # Each is the deepest query of its shape the parser accepts.
        at_limit = [
            "SELECT c0 FROM t WHERE " + " OR ".join(["c0 = 2"] * (MAX_EXPRESSION_DEPTH - 1)),
            "SELECT c0 FROM t WHERE c0 > " + " + ".join(["0"] * (MAX_EXPRESSION_DEPTH - 1)),
            "SELECT " + "ABS(" * 197 + "c0" + ")" * 197 + " FROM t",
            "SELECT c0 FROM t WHERE " + "CASE WHEN c0 = 2 THEN " * 196 + "TRUE" + " ELSE FALSE END" * 196,
            "SELECT c0 FROM t WHERE " + "EXISTS (SELECT c0 FROM t WHERE " * 65 + "c0 = 2" + ")" * 65,
            # Each SELECT counts 2, each parenthesis around a set-operation
            # arm 1 and the select item inside them 1.
            "(" * 197 + "SELECT c0 FROM t" + ")" * 197,
            "SELECT c0 FROM " + "(" * 196 + "SELECT c0 FROM t" + ")" * 196,
        ]
        for sql in at_limit:
            parse_sql(sql)
            rows = {executor: self._dialect(executor).execute(sql) for executor in ("row", "vectorized")}
            assert rows["row"] == rows["vectorized"] and rows["row"]
            self._dialect("vectorized").explain(sql, format="json")
        with pytest.raises(ParseError):
            parse_sql(at_limit[0] + " OR c0 = 2")
        with pytest.raises(ParseError):
            parse_sql("SELECT " + "ABS(" * 198 + "c0" + ")" * 198 + " FROM t")
        with pytest.raises(ParseError):
            parse_sql("(" * 198 + "SELECT c0 FROM t" + ")" * 198)
        with pytest.raises(ParseError):
            parse_sql("SELECT c0 FROM " + "(" * 197 + "SELECT c0 FROM t" + ")" * 197)


def _aliased_join(levels):
    query = "SELECT COUNT(*) FROM "
    for level in range(levels):
        query += f"(t AS t{level} JOIN "
    return query + "t" + " ON 1=1)" * levels


#: Parentheses around a whole query or FROM item, by name: the query at
#: *levels* of nesting, the deepest nesting the parser accepts, and the
#: rows at three levels.  Each SELECT counts 2, each parenthesis 1 and the
#: expressions inside them their own height.
_PARENTHESISED_SHAPES = {
    "set-operation-arm": (
        lambda levels: "(" * levels + "SELECT c0 FROM t" + ")" * levels,
        197, [1, 2, 3],
    ),
    "right-union-arm": (
        lambda levels: "SELECT c0 FROM t UNION " + "(" * levels + "SELECT c0 FROM t" + ")" * levels,
        197, [1, 2, 3],
    ),
    "whole-union": (
        lambda levels: "(" * levels + "SELECT c0 FROM t UNION ALL SELECT c0 FROM t" + ")" * levels,
        197, [1, 1, 2, 2, 3, 3],
    ),
    "from-subquery": (
        lambda levels: "SELECT c0 FROM " + "(" * levels + "SELECT c0 FROM t" + ")" * levels,
        196, [1, 2, 3],
    ),
    "from-join": (_aliased_join, 196, [81]),
    "in-subquery": (
        lambda levels: (
            "SELECT c0 FROM t WHERE c0 IN " + "(" * levels + "SELECT MAX(c0) FROM t" + ")" * levels
        ),
        194, [3],
    ),
}


class TestParenthesisedQueryDepth:
    """Parentheses around queries and FROM items count against the limit."""

    @pytest.mark.parametrize("shape", sorted(_PARENTHESISED_SHAPES))
    def test_deepest_accepted_nesting_parses(self, shape):
        build, limit, _ = _PARENTHESISED_SHAPES[shape]
        assert len(parse_sql(build(limit))) == 1

    @pytest.mark.parametrize("shape", sorted(_PARENTHESISED_SHAPES))
    def test_one_level_deeper_is_a_parse_error(self, shape):
        build, limit, _ = _PARENTHESISED_SHAPES[shape]
        with pytest.raises(ParseError, match="nested deeper than 200 levels"):
            parse_sql(build(limit + 1))

    @pytest.mark.parametrize("shape", sorted(_PARENTHESISED_SHAPES))
    def test_shallow_nesting_runs_on_both_executors(self, shape):
        build, _, expected = _PARENTHESISED_SHAPES[shape]
        for executor in ("row", "vectorized"):
            dialect = TestExpressionDepthLimit._dialect(executor)
            rows = dialect.execute(build(3))
            assert sorted(value for row in rows for value in row.values()) == expected


class TestPrinter:
    ROUNDTRIP_QUERIES = [
        "SELECT c0 FROM t0 WHERE (c0 < 5)",
        "SELECT COUNT(*) FROM t0 GROUP BY c1 HAVING (COUNT(*) > 2)",
        "SELECT a.x FROM a INNER JOIN b ON (a.x = b.x) ORDER BY a.x DESC LIMIT 3",
        "SELECT c0 FROM t0 UNION ALL SELECT c0 FROM t1",
        "INSERT INTO t0 (c0) VALUES (1), (2)",
        "UPDATE t0 SET c0 = 2 WHERE (c0 = 1)",
        "DELETE FROM t0 WHERE (c0 IS NULL)",
        "CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 TEXT)",
    ]

    @pytest.mark.parametrize("query", ROUNDTRIP_QUERIES)
    def test_print_then_reparse(self, query):
        first = parse_one(query)
        printed = print_statement(first)
        second = parse_one(printed)
        assert print_statement(second) == printed

    def test_print_expression_nested(self):
        statement = parse_one("SELECT * FROM t WHERE a IN (GREATEST(0.1, 0.2))")
        text = print_expression(statement.body.where)
        assert "GREATEST" in text
