"""Regression tests for the PR-5 planner/lexer correctness fixes.

Four bugs, each exercised through both executors (``row`` and
``vectorized``) and with the prepared-query cache on and off:

* ``ORDER BY 1`` silently sorted by the constant literal ``1`` (i.e. not at
  all) instead of the first output column;
* ``GROUP BY 1`` failed with a misleading ``unknown column`` error naming
  whatever the select list projected, and a genuinely unknown grouping
  column surfaced the wrong name (or no error at all on empty inputs);
* the lexer silently split hex literals: ``SELECT 0x10`` lexed as NUMBER
  ``0`` plus identifier ``x10`` and "succeeded" with a bogus column;
* ``LIMIT -1`` returned zero rows, but SQLite semantics (the dialect under
  test) treat a negative limit as "no limit".
"""

import pytest

from repro.dialects import create_dialect
from repro.errors import LexerError, PlanningError


@pytest.fixture(params=["row", "vectorized"])
def executor(request):
    return request.param


@pytest.fixture(params=[True, False], ids=["cache", "no-cache"])
def prepared_cache(request):
    return request.param


@pytest.fixture
def dialect(executor, prepared_cache):
    dialect = create_dialect("postgresql", prepared_cache=prepared_cache)
    dialect.reconfigure(executor=executor)
    dialect.execute("CREATE TABLE t (a INT, b INT)")
    dialect.execute(
        "INSERT INTO t (a, b) VALUES (3, 1), (1, 3), (2, 2), (4, NULL)"
    )
    return dialect


def _column(rows, name):
    return [row[name] for row in rows]


class TestOrderByOrdinal:
    def test_order_by_1_sorts_by_first_output_column(self, dialect):
        rows = dialect.execute("SELECT a FROM t ORDER BY 1")
        assert _column(rows, "a") == [1, 2, 3, 4]

    def test_order_by_2_desc(self, dialect):
        rows = dialect.execute("SELECT a, b FROM t ORDER BY 2 DESC")
        # NULLs sort last on descending order, like the named-column path.
        assert _column(rows, "a") == [1, 2, 3, 4]

    def test_ordinal_with_alias(self, dialect):
        rows = dialect.execute("SELECT a AS renamed FROM t ORDER BY 1")
        assert _column(rows, "renamed") == [1, 2, 3, 4]

    def test_ordinal_over_expression_item(self, dialect):
        rows = dialect.execute("SELECT a + b FROM t ORDER BY 1")
        # NULLs sort first ascending, matching the named-key sort path.
        assert _column(rows, "(a + b)") == [None, 4, 4, 4]

    def test_ordinal_through_star(self, dialect):
        rows = dialect.execute("SELECT * FROM t ORDER BY 2")
        assert _column(rows, "t.b") == [None, 1, 2, 3]

    def test_ordinal_with_limit_top_n(self, dialect):
        rows = dialect.execute("SELECT a FROM t ORDER BY 1 DESC LIMIT 2")
        assert _column(rows, "a") == [4, 3]

    def test_ordinal_on_set_operation(self, dialect):
        rows = dialect.execute(
            "SELECT a FROM t UNION ALL SELECT b FROM t ORDER BY 1"
        )
        values = [next(iter(row.values())) for row in rows]
        assert values == [None, 1, 1, 2, 2, 3, 3, 4]

    def test_out_of_range_ordinal_raises(self, dialect):
        with pytest.raises(PlanningError):
            dialect.execute("SELECT a FROM t ORDER BY 5")

    def test_mixed_ordinal_and_named_keys(self, dialect):
        rows = dialect.execute("SELECT a, b FROM t ORDER BY b DESC, 1")
        assert _column(rows, "a") == [1, 2, 3, 4]


class TestGroupByOrdinal:
    def test_group_by_1(self, dialect):
        rows = dialect.execute("SELECT b FROM t GROUP BY 1")
        assert sorted(value for value in _column(rows, "b") if value is not None) == [
            1,
            2,
            3,
        ]
        assert len(rows) == 4

    def test_group_by_ordinal_with_aggregate(self, dialect):
        rows = dialect.execute("SELECT b, COUNT(*) FROM t GROUP BY 1")
        assert len(rows) == 4
        assert all(row["COUNT(*)"] == 1 for row in rows)

    def test_group_by_ordinal_expression(self, dialect):
        dialect.execute("INSERT INTO t (a, b) VALUES (1, 7)")
        rows = dialect.execute("SELECT a % 2, COUNT(*) FROM t GROUP BY 1")
        assert len(rows) == 2

    def test_group_by_out_of_range_raises(self, dialect):
        with pytest.raises(PlanningError):
            dialect.execute("SELECT a FROM t GROUP BY 3")

    def test_unknown_group_column_error_names_that_column(self, dialect):
        with pytest.raises(PlanningError) as excinfo:
            dialect.execute("SELECT a FROM t GROUP BY zzz")
        assert "zzz" in str(excinfo.value)
        assert "'a'" not in str(excinfo.value)

    def test_unknown_qualified_group_column(self, dialect):
        with pytest.raises(PlanningError) as excinfo:
            dialect.execute("SELECT a FROM t GROUP BY t.nope")
        assert "nope" in str(excinfo.value)

    def test_unknown_group_column_fails_even_on_empty_table(self, dialect):
        dialect.execute("CREATE TABLE empty_t (c INT)")
        with pytest.raises(PlanningError):
            dialect.execute("SELECT c FROM empty_t GROUP BY missing")


class TestHexLiteralLexing:
    @pytest.mark.parametrize("text", ["SELECT 0x10", "SELECT 0X1F", "SELECT 0x"])
    def test_hex_literal_is_a_clear_lexer_error(self, dialect, text):
        with pytest.raises(LexerError) as excinfo:
            dialect.execute(text)
        assert "hexadecimal" in str(excinfo.value)

    def test_decimals_and_exponents_unaffected(self, dialect):
        rows = dialect.execute("SELECT 0.5, 10, 1e2")
        assert list(rows[0].values()) == [0.5, 10, 100.0]

    def test_identifier_starting_with_x_unaffected(self, dialect):
        dialect.execute("CREATE TABLE hexish (x10 INT)")
        dialect.execute("INSERT INTO hexish (x10) VALUES (1)")
        assert dialect.execute("SELECT x10 FROM hexish")[0]["x10"] == 1


class TestNegativeLimit:
    def test_limit_minus_one_means_no_limit(self, dialect):
        rows = dialect.execute("SELECT a FROM t LIMIT -1")
        assert len(rows) == 4

    def test_limit_minus_one_with_order_by(self, dialect):
        # The TOP-N path (ORDER BY + LIMIT) must agree with the plain path.
        rows = dialect.execute("SELECT a FROM t ORDER BY a LIMIT -1")
        assert _column(rows, "a") == [1, 2, 3, 4]

    def test_large_negative_limit(self, dialect):
        assert len(dialect.execute("SELECT a FROM t LIMIT -10")) == 4
        assert len(dialect.execute("SELECT a FROM t ORDER BY a LIMIT -10")) == 4

    def test_limit_zero_still_empty(self, dialect):
        assert dialect.execute("SELECT a FROM t LIMIT 0") == []
        assert dialect.execute("SELECT a FROM t ORDER BY a LIMIT 0") == []

    def test_negative_limit_with_offset(self, dialect):
        rows = dialect.execute("SELECT a FROM t LIMIT -1 OFFSET 1")
        assert len(rows) == 3

    def test_sqlite_dialect_matches_its_own_semantics(self, executor):
        # SQLite is the dialect whose documented behaviour the engine
        # follows; its planner has no TOP-N so this exercises plain LIMIT.
        dialect = create_dialect("sqlite")
        dialect.reconfigure(executor=executor)
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert len(dialect.execute("SELECT a FROM t LIMIT -1")) == 3
        assert len(dialect.execute("SELECT a FROM t ORDER BY a LIMIT -1")) == 3
