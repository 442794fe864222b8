"""The row-oracle equivalence harness for the vectorized executor.

The row executor is the correctness oracle: the vectorized executor must be
observationally identical — same result rows, same row order, same
``EXPLAIN ANALYZE`` runtime row counts, same unified-plan fingerprints, and
(at campaign level, tests/test_engine_config.py) byte-identical coverage
sets and Table V reports.  The statement matrix
(tests/test_statement_matrix.py) fuzzes that equivalence over the
generator corpus with QPG-style mutations in between; this module keeps
the batch building blocks and the hand-picked traps the corpus cannot
reach.

Since PR 6 the vectorized executor has two column representations — plain
lists and NumPy-backed :class:`~repro.engine.arrays.ArrayColumn` — a
kernel axis of the statement matrix (tests/statement_matrix.py) that drops
out when numpy is not importable.
"""

import pytest

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, TableSchema
from repro.dialects import create_dialect
from repro.engine import Executor, VectorizedExecutor, arrays, create_executor
from repro.engine.expressions import (
    BatchContext,
    EvaluationContext,
    compile_expression_batch,
    compile_predicate_batch,
    evaluate,
    evaluate_predicate,
)
from repro.engine.vectorized import RowBatch, batches_from_rows, rows_from_batches
from repro.sqlparser.parser import parse_sql
from repro.storage.table import HeapTable
from statement_matrix import Matrix, kernel_cells


class TestBatchExpressionSemantics:
    """Batch-compiled expressions mirror ``evaluate`` element for element."""

    ROWS = [
        {"t.a": 1, "t.b": 10, "t.c": None},
        {"t.a": 2, "t.b": None, "t.c": 5},
        {"t.a": None, "t.b": 3, "t.c": 0},
        {"t.a": -4, "t.b": 0, "t.c": 7},
    ]

    EXPRESSIONS = [
        "t.a = 2",
        "t.a <> t.b",
        "t.a < t.b",
        "t.b >= 3",
        "t.a + t.c",
        "t.a * 2 - t.b",
        "t.b / t.c",
        "t.a % 2",
        "-t.a",
        "NOT t.a = 1",
        "t.a IS NULL",
        "t.b IS NOT NULL",
        "t.a BETWEEN 0 AND 2",
        "t.a NOT BETWEEN t.b AND t.c",
        "t.a IN (1, 2, NULL)",
        "t.a NOT IN (2, 3)",
        "t.a = 1 AND t.b = 10",
        "t.a = 1 OR t.c IS NULL",
        "ABS(t.a)",
        "COALESCE(t.b, t.c, 99)",
        "GREATEST(t.a, t.b, t.c)",
        "CASE WHEN t.a > 0 THEN 1 ELSE 0 END",
        "CAST(t.a AS TEXT)",
    ]

    def _parse_expression(self, text):
        statement = parse_sql(f"SELECT 1 FROM t WHERE {text}")[0]
        return statement.cores()[0].where

    def _batch(self):
        keys = list(self.ROWS[0])
        columns = {key: [row[key] for row in self.ROWS] for key in keys}
        return BatchContext(columns, len(self.ROWS))

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_expression_matches_evaluate(self, text):
        expression = self._parse_expression(text)
        batch_values = compile_expression_batch(expression)(self._batch())
        row_values = [
            evaluate(expression, EvaluationContext(row)) for row in self.ROWS
        ]
        assert batch_values == row_values

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_selection_vector_matches_predicate(self, text):
        expression = self._parse_expression(text)
        selection = compile_predicate_batch(expression)(self._batch())
        expected = [
            position
            for position, row in enumerate(self.ROWS)
            if evaluate_predicate(expression, EvaluationContext(row))
        ]
        assert selection == expected

    def test_empty_predicate_selects_everything(self):
        assert compile_predicate_batch(None)(self._batch()) == [0, 1, 2, 3]


class TestRowBatchRoundTrip:
    def test_uniform_rows_round_trip(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": None, "b": 6}]
        batches = batches_from_rows(rows, batch_size=2)
        assert [batch.length for batch in batches] == [2, 1]
        assert rows_from_batches(batches) == rows

    def test_heterogeneous_rows_split_into_uniform_batches(self):
        rows = [{"a": 1}, {"a": 2}, {"b": 3}, {"a": 4, "b": 5}, {"a": 6, "b": 7}]
        batches = batches_from_rows(rows)
        assert [batch.schema() for batch in batches] == [
            ("a",),
            ("b",),
            ("a", "b"),
        ]
        assert rows_from_batches(batches) == rows

    def test_to_rows_returns_fresh_dicts(self):
        batch = RowBatch({"a": [1, 2]}, 2)
        first = batch.to_rows()
        first[0]["a"] = 99
        assert batch.to_rows()[0]["a"] == 1


class TestColumnarSnapshots:
    def _table(self):
        return HeapTable(
            TableSchema(
                name="t",
                columns=[
                    Column(name="a", data_type=DataType.INTEGER),
                    Column(name="b", data_type=DataType.INTEGER, default=7),
                ],
            )
        )

    def test_snapshot_matches_rows_and_is_cached(self):
        table = self._table()
        table.insert_many([{"a": 1, "b": 2}, {"a": 3}])
        snapshot = table.column_batch()
        assert snapshot.columns == {"a": [1, 3], "b": [2, 7]}
        assert snapshot.row_ids == [1, 2]
        assert table.column_batch() is snapshot

    def test_version_bump_invalidates(self):
        # A *mutation* of this table invalidates; a version number that
        # moved for any other reason does not.
        database = Database()
        database.create_table(self._table().schema)
        database.create_table(
            TableSchema(name="other", columns=[Column(name="x", data_type=DataType.INTEGER)])
        )
        table = database.table("t")
        database.insert_rows("t", [{"a": 1}])
        old = table.column_batch()
        assert old.version == table.data_version
        before = database.version
        database.insert_rows("other", [{"x": 1}])
        database.analyze("t")
        database.create_index("other_x", "other", ["x"])
        assert database.version > before
        assert table.column_batch() is old
        for mutate in (
            lambda: table.insert({"a": 2}),
            lambda: table.insert_many([{"a": 3}]),
            lambda: table.update(1, {"a": 10}),
            lambda: table.delete(1),
            table.truncate,
        ):
            stale, version = table.column_batch(), table.data_version
            mutate()
            assert table.data_version == version + 1
            fresh = table.column_batch()
            assert fresh is not stale
            assert fresh.version == table.data_version
        table.insert_many([])
        assert table.column_batch() is fresh

    def test_direct_mutation_invalidates_even_without_bump(self):
        table = self._table()
        row_id = table.insert({"a": 1})
        table.column_batch()
        table.update(row_id, {"a": 10})
        assert table.column_batch().columns["a"] == [10]
        table.delete(row_id)
        assert table.column_batch().length == 0

    def test_insert_many_assigns_sequential_ids_and_validates_upfront(self):
        table = self._table()
        assert table.insert_many([{"a": 1}, {"a": 2}]) == [1, 2]
        with pytest.raises(Exception):
            table.insert_many([{"a": 3}, {"nope": 4}])
        # The batch path validates before touching the heap.
        assert table.row_count == 2


class TestEdgeCaseParity:
    """Hand-picked divergence candidates the generator corpus cannot reach."""

    @pytest.mark.parametrize(
        "query",
        [
            # Negative limits mean "no limit" (SQLite semantics, a PR-5
            # fix); both executors must agree.
            "SELECT a FROM t ORDER BY a LIMIT -1",
            "SELECT a FROM t ORDER BY a LIMIT -10",
            "SELECT a FROM t ORDER BY a DESC LIMIT 0",
            "SELECT a FROM t LIMIT 2 OFFSET 3",
            "SELECT b, a FROM t ORDER BY b DESC",
            "SELECT a FROM t WHERE b IS NULL OR b > 15",
        ],
    )
    def test_query_parity(self, query):
        Matrix(kernel_cells("row", "vectorized"), [
            "CREATE TABLE t (a INT, b INT)",
            "INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, 30), (4, NULL)",
        ]).check(query)


class TestArrayPathParity:
    """Numeric-trap parity on tables large enough for the array fast path.

    Tables here exceed both ``ROW_PATH_THRESHOLD`` (statement routing) and
    ``ARRAY_MIN_ROWS`` (snapshot upgrade), so with numpy enabled these
    queries genuinely run on :class:`ArrayColumn` kernels — the numeric
    traps (NULL comparisons, NaN values, mixed-type columns, integers
    beyond 2**53) must be decided by the fallback rule, never by
    silent numpy coercion.  Rows compare by ``repr``, so NaN equals NaN.
    """

    ROWS = 3 * arrays.ARRAY_MIN_ROWS

    def _assert_parity(self, fill, queries):
        """Row, list and numpy engines over *fill(i)* rows, loaded via the
        storage API (bypassing literal parsing so NaN / huge ints / mixed
        types reach the columns verbatim)."""

        def load(dialect):
            dialect.database.insert_rows("t", [fill(i) for i in range(self.ROWS)])
            dialect.analyze_tables()

        matrix = Matrix(
            kernel_cells("row", "vectorized"), ["CREATE TABLE t (a INT, b INT, c REAL)"], load
        )
        for query in queries:
            matrix.check(query)

    def test_null_in_comparisons(self):
        def fill(i):
            return {
                "a": None if i % 5 == 0 else i,
                "b": None if i % 7 == 0 else (i * 3) % 40,
                "c": None if i % 3 == 0 else i / 4.0,
            }

        self._assert_parity(
            fill,
            [
                "SELECT a FROM t WHERE a > 10 AND b < 30",
                "SELECT a, b FROM t WHERE a = b OR c IS NULL",
                "SELECT a FROM t WHERE NOT (a BETWEEN 5 AND 100)",
                "SELECT COUNT(*), COUNT(a), SUM(b), AVG(a), MIN(c), MAX(c) FROM t",
                "SELECT b, COUNT(a) FROM t GROUP BY b ORDER BY b",
                "SELECT a, c FROM t ORDER BY c DESC, a LIMIT 20",
                "SELECT a + b, a * 2, b % 7, a / c FROM t",
            ],
        )

    def test_nan_values_stay_values(self):
        def fill(i):
            return {"a": i, "b": i % 9, "c": float("nan") if i % 11 == 0 else i / 2.0}

        self._assert_parity(
            fill,
            [
                # NaN compares False to everything — rows with NaN vanish.
                "SELECT a FROM t WHERE c > 10",
                "SELECT a FROM t WHERE c = c",
                # NaN is truthy (Python bool(nan) is True), not NULL.
                "SELECT COUNT(c) FROM t",
                "SELECT a FROM t WHERE c IS NOT NULL AND a < 10",
                # Sorts and MIN/MAX bail to the oracle path on NaN.
                "SELECT a FROM t ORDER BY c, a LIMIT 15",
                "SELECT b, MIN(c), MAX(c) FROM t GROUP BY b ORDER BY b",
            ],
        )

    def test_mixed_type_columns_stay_on_oracle_path(self):
        def fill(i):
            return {
                "a": ("x%d" % i) if i % 4 == 0 else i,  # int/str mix
                "b": i + 0.5 if i % 2 else i,  # int/float mix
                "c": i / 8.0,
            }

        self._assert_parity(
            fill,
            [
                "SELECT a FROM t WHERE b > 20",
                "SELECT a, b FROM t WHERE a = 8 OR a = 'x4'",
                "SELECT b FROM t ORDER BY a LIMIT 10",
                "SELECT COUNT(a), MIN(b), MAX(b) FROM t",
            ],
        )

    def test_integers_beyond_2_53_stay_exact(self):
        huge = 2 ** 53
        def fill(i):
            return {"a": huge + i, "b": i, "c": None}

        self._assert_parity(
            fill,
            [
                # 2**53 + 1 and 2**53 + 2 round to the same float64; exact
                # equality classes must survive.
                "SELECT COUNT(DISTINCT a) FROM t",
                "SELECT b FROM t WHERE a = 9007199254740993",
                "SELECT a FROM t ORDER BY a DESC LIMIT 5",
                "SELECT MIN(a), MAX(a) FROM t",
                # Arithmetic that crosses the cap re-materializes exactly.
                "SELECT a + b FROM t WHERE b < 10",
                "SELECT a - 9007199254740992 FROM t ORDER BY b LIMIT 8",
            ],
        )

    def test_arithmetic_overflow_rematerializes_exactly(self):
        big = 2 ** 52
        def fill(i):
            return {"a": big + i, "b": 2 + (i % 3), "c": None}

        self._assert_parity(
            fill,
            [
                "SELECT a + a FROM t ORDER BY b LIMIT 10",
                "SELECT SUM(a) FROM t",
                "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY b",
            ],
        )


class TestExecutorFactory:
    def test_create_executor_by_name(self):
        dialect = create_dialect("postgresql")
        assert isinstance(create_executor("row", dialect.database), Executor)
        assert isinstance(
            create_executor("vectorized", dialect.database), VectorizedExecutor
        )
        with pytest.raises(ValueError):
            create_executor("columnar-ish", dialect.database)

    def test_set_executor_switches_and_is_idempotent(self):
        dialect = create_dialect("postgresql")
        vectorized = dialect.executor
        dialect.set_executor("vectorized")
        assert dialect.executor is vectorized
        dialect.set_executor("row")
        assert type(dialect.executor) is Executor
        assert dialect.config.executor == "row"
