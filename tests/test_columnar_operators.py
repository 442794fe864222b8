"""Three-way parity for the column-at-a-time operators.

Grouped aggregation, hash-join probe / LEFT-join assembly and ``IN`` lists
evaluate whole columns per batch (``VectorizedExecutor._batch_aggregate``,
``_batch_hash_join``, ``expressions._in_list_kernel``).  Every case here runs
row ↔ vectorized-list ↔ vectorized-numpy over tables of
``3 * ARRAY_MIN_ROWS`` rows, once with a small ``batch_size`` — so inputs
span several batches, and UNION ALL of different arities makes them
non-uniform — and once uncapped (the serial default: one batch per uniform
run), and compares result rows *by repr* (``1`` is not ``1.0``, float sums are
bit-identical, NaN equals NaN) plus ``EXPLAIN ANALYZE`` ``actual_rows`` and
``loops`` node for node.  The numpy mode drops out cleanly when numpy is
absent or disabled; the list mode always runs.

Every join is written with qualified columns whose left operand names the
left input: an unqualified equality written the other way round matches
nothing on this engine (ROADMAP open item 1(a), third known engine bug).
"""

import pytest

from repro.benchmarking import tpch
from repro.dialects import create_dialect
from repro.dialects.prepared import reset_runtime
from repro.engine import arrays
from repro.engine.expressions import BatchContext, compile_expression_batch
from repro.errors import ExecutionError, ReproError
from repro.optimizer.physical import OpKind
from repro.sqlparser.parser import parse_sql

ROWS = 3 * arrays.ARRAY_MIN_ROWS
BATCH_SIZE = 50
#: Every vectorized run happens at each of these caps (``None``: uncapped).
BATCH_SIZES = (BATCH_SIZE, None)
NAN = float("nan")


@pytest.fixture(autouse=True)
def _restore_kernel_state():
    saved = arrays.numpy_enabled()
    yield
    arrays.set_numpy_enabled(saved)


def _kernel_modes():
    modes = [("list", False)]
    if arrays.numpy_enabled():
        modes.append(("numpy", True))
    return modes


class Engines:
    """One row-oracle dialect and one vectorized dialect (toggled between
    the list and numpy column representations) over identical tables."""

    def __init__(self, ddl, tables, load=None):
        self.dialects = {}
        for kind in ("row", "vectorized"):
            dialect = create_dialect("postgresql")
            dialect.set_executor(kind)
            for statement in ddl:
                dialect.execute(statement)
            for name, rows in tables.items():
                dialect.database.insert_rows(name, rows)
            if load is not None:
                load(dialect)
            dialect.analyze_tables()
            self.dialects[kind] = dialect

    @staticmethod
    def _frozen(rows):
        return [tuple((key, repr(value)) for key, value in row.items()) for row in rows]

    def _observe(self, kind, query):
        """Rows by repr, and (kind, actual_rows, loops) per plan node."""
        dialect = self.dialects[kind]
        try:
            rows = dialect.execute(query)
            plan = dialect.planner.plan_statement(parse_sql(query)[0])
            analyzed = dialect.executor.execute(reset_runtime(plan), analyze=True)
        except ReproError as exc:
            return ["error", type(exc).__name__], None, None
        assert self._frozen(analyzed) == self._frozen(rows), query
        counts = [
            (node.kind, node.runtime.executed, node.runtime.actual_rows, node.runtime.loops)
            for node in plan.walk()
        ]
        return self._frozen(rows), counts, plan

    def assert_parity(self, query, operator=None):
        """All engines agree on *query*; returns the row oracle's rows.
        *operator* names a plan node kind the statement must contain."""
        expected_rows, expected_counts, plan = self._observe("row", query)
        if operator is not None:
            assert any(node.kind is operator for node in plan.walk()), query
        executor = self.dialects["vectorized"].executor
        for batch_size in BATCH_SIZES:
            executor.batch_size = batch_size
            for label, use_numpy in _kernel_modes():
                arrays.set_numpy_enabled(use_numpy)
                rows, counts, _ = self._observe("vectorized", query)
                assert rows == expected_rows, (label, batch_size, query)
                assert counts == expected_counts, (label, batch_size, query)
        return expected_rows


# ---------------------------------------------------------------------------
# Grouped aggregation
# ---------------------------------------------------------------------------


def _fact(i):
    return {
        "k": i % 7,
        "f": (i % 4) / 2.0,
        "s": "g%d" % (i % 5),
        "n": None if i % 6 == 0 else i % 3,
        "m": (i % 3) if i % 2 else float(i % 3),  # 1 and 1.0 are one group
        "b": i % 2 == 0,
        "x": 0.1 * i + (1e10 if i % 3 == 0 else 0.0),  # order-dependent sums
        "big": 2 ** 53 + i,
        "v": NAN if i % 11 == 0 else (None if i % 5 == 0 else i / 2.0),
    }


@pytest.fixture(scope="module")
def fact():
    return Engines(
        ["CREATE TABLE t (k INT, f REAL, s TEXT, n INT, m INT, b BOOLEAN, x REAL, big INT, v REAL)"],
        {"t": [_fact(i) for i in range(ROWS)]},
    )


AGGREGATES = (
    "COUNT(*), COUNT(n), COUNT(v), SUM(k), SUM(x), AVG(x), AVG(k), SUM(n), "
    "MIN(x), MAX(x), MIN(v), MAX(v), MIN(s), MAX(big), SUM(big), "
    "COUNT(DISTINCT k), SUM(DISTINCT f), COUNT(DISTINCT s), COUNT(DISTINCT big)"
)


class TestGroupedAggregation:
    @pytest.mark.parametrize(
        "keys",
        ["k", "f", "s", "n", "m", "b", "k, s", "s, n, f", "k > 3", "k + n", "big"],
    )
    def test_group_keys(self, fact, keys):
        rows = fact.assert_parity(
            f"SELECT {keys}, {AGGREGATES} FROM t GROUP BY {keys}", OpKind.HASH_AGGREGATE
        )
        assert len(rows) > 1

    def test_mixed_int_float_key_is_one_group(self, fact):
        rows = fact.assert_parity("SELECT m, COUNT(*) FROM t GROUP BY m")
        assert len(rows) == 3  # 0/0.0, 1/1.0, 2/2.0

    def test_global_aggregates(self, fact):
        rows = fact.assert_parity(f"SELECT {AGGREGATES} FROM t")
        counts = dict(rows[0])
        assert counts["COUNT(*)"] == repr(ROWS)
        assert counts["COUNT(n)"] == repr(ROWS - len(range(0, ROWS, 6)))
        assert counts["SUM(big)"] == repr(sum(2 ** 53 + i for i in range(ROWS)))

    def test_float_sums_are_bit_identical_to_the_input_order_fold(self, fact):
        rows = fact.assert_parity("SELECT k, SUM(x), AVG(x) FROM t GROUP BY k ORDER BY k")
        for k, (_, total, mean) in enumerate(rows):
            members = [_fact(i)["x"] for i in range(ROWS) if i % 7 == k]
            assert total == ("SUM(x)", repr(sum(members)))
            assert mean == ("AVG(x)", repr(sum(members) / len(members)))

    @pytest.mark.parametrize("group_by", ["", " GROUP BY k"])
    def test_empty_input(self, fact, group_by):
        rows = fact.assert_parity(
            f"SELECT COUNT(*), COUNT(n), SUM(x), MIN(k), AVG(k) FROM t WHERE k > 99{group_by}"
        )
        assert len(rows) == (0 if group_by else 1)

    def test_non_uniform_multi_batch_input(self, fact):
        union = "(SELECT k, x FROM t UNION ALL SELECT k FROM t WHERE k < 4) AS u"
        rows = fact.assert_parity(f"SELECT k, COUNT(*), SUM(k) FROM {union} GROUP BY k")
        assert len(rows) == 7
        fact.assert_parity(f"SELECT DISTINCT k FROM {union}")

    def test_dedupe_and_set_operations(self, fact):
        assert len(fact.assert_parity("SELECT DISTINCT s, n FROM t")) == 5 * 4
        assert len(fact.assert_parity("SELECT DISTINCT m FROM t")) == 3
        fact.assert_parity("SELECT k FROM t INTERSECT SELECT n FROM t")
        fact.assert_parity("SELECT k, s FROM t EXCEPT SELECT n, s FROM t WHERE k < 5")

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT s, SUM(k) FROM t GROUP BY s HAVING SUM(k) > 100 AND COUNT(*) > 1",
            "SELECT s, SUM(k) + COUNT(*), AVG(x) * 2 FROM t GROUP BY s",
            "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY SUM(x) DESC, s",
            "SELECT k FROM t GROUP BY k HAVING MAX(n) IS NULL OR MIN(v) < 10",
        ],
    )
    def test_aggregate_references_above_the_aggregate(self, fact, query):
        assert fact.assert_parity(query)


class TestAggregateReferenceBatchCase:
    EXPRESSION = parse_sql("SELECT SUM(x) + 1 FROM t")[0].body.items[0].expression

    def test_reads_the_column_stored_under_the_printed_text(self):
        compiled = compile_expression_batch(self.EXPRESSION)
        assert compiled(BatchContext({"SUM(x)": [1, None, 5]}, 3)) == [2, None, 6]

    def test_absent_on_a_non_empty_batch_raises_like_evaluate(self):
        compiled = compile_expression_batch(self.EXPRESSION)
        with pytest.raises(ExecutionError, match="used outside an aggregation"):
            compiled(BatchContext({"x": [1]}, 1))

    def test_an_empty_batch_evaluates_nothing(self):
        assert list(compile_expression_batch(self.EXPRESSION)(BatchContext({}, 0))) == []


# ---------------------------------------------------------------------------
# Hash joins
# ---------------------------------------------------------------------------


def _left(i):
    return {"k": None if i % 13 == 0 else i % 10, "j": i % 3, "v": i}


def _right(i):
    # k repeats (duplicate build keys), is NULL now and then, and reaches
    # values the left side never has; j is float where the left is int.
    return {"k": None if i % 17 == 0 else i % 16, "j": float(i % 4), "w": i}


@pytest.fixture(scope="module")
def joined():
    return Engines(
        ["CREATE TABLE lt (k INT, j INT, v INT)", "CREATE TABLE rt (k INT, j REAL, w INT)"],
        {"lt": [_left(i) for i in range(ROWS)], "rt": [_right(i) for i in range(ROWS)]},
    )


def _pairs(condition):
    """Per left row, how many right rows satisfy *condition* (brute force)."""
    lefts = [_left(i) for i in range(ROWS)]
    rights = [_right(i) for i in range(ROWS)]
    return [sum(1 for r in rights if condition(l, r)) for l in lefts]


def _eq(a, b):
    return a is not None and b is not None and a == b


JOIN_CASES = {
    "one key": ("lt.k = rt.k", lambda l, r: _eq(l["k"], r["k"])),
    "two keys": (
        "lt.k = rt.k AND lt.j = rt.j",
        lambda l, r: _eq(l["k"], r["k"]) and _eq(l["j"], r["j"]),
    ),
    "residual": (
        "lt.k = rt.k AND lt.v < rt.w",
        lambda l, r: _eq(l["k"], r["k"]) and l["v"] < r["w"],
    ),
    "two keys + residual": (
        "lt.j = rt.j AND lt.k = rt.k AND lt.v + rt.w > 200",
        lambda l, r: _eq(l["k"], r["k"]) and _eq(l["j"], r["j"]) and l["v"] + r["w"] > 200,
    ),
}


class TestHashJoins:
    @pytest.mark.parametrize("case", sorted(JOIN_CASES))
    @pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
    def test_row_counts_match_brute_force(self, joined, join, case):
        condition, predicate = JOIN_CASES[case]
        matches = _pairs(predicate)
        expected = sum(matches) if join == "JOIN" else sum(max(m, 1) for m in matches)
        assert 0 < sum(matches) < expected or join == "JOIN"  # LEFT really pads
        rows = joined.assert_parity(
            f"SELECT lt.k, lt.j, lt.v, rt.k, rt.j, rt.w FROM lt {join} rt ON {condition}",
            OpKind.HASH_JOIN,
        )
        assert len(rows) == expected > 0

    def test_shared_key_name_star_projection(self, joined):
        # ``k`` and ``j`` exist on both sides: the joined row keeps both,
        # qualified; a LEFT pad leaves the right ones NULL.
        rows = joined.assert_parity(
            "SELECT * FROM lt LEFT JOIN rt ON lt.k = rt.k AND lt.j = rt.j ORDER BY lt.v, rt.w"
        )
        padded = [row for row in rows if dict(row)["rt.w"] == "None"]
        assert len(padded) == sum(
            1 for m in _pairs(JOIN_CASES["two keys"][1]) if not m
        ) > 0
        assert all(dict(row)["rt.k"] == "None" for row in padded)

    def test_aggregate_over_left_join(self, joined):
        rows = joined.assert_parity(
            "SELECT lt.v, COUNT(rt.w) FROM lt LEFT JOIN rt ON lt.k = rt.k AND rt.w > 150 "
            "GROUP BY lt.v ORDER BY lt.v"
        )
        assert len(rows) == ROWS

    def test_empty_sides(self, joined):
        # An empty side contributes no columns (the row executor pads with
        # ``_null_row_like([])``), so only the left ones can be projected.
        empty = "(SELECT k, j, w FROM rt WHERE w < 0) AS rt"
        assert len(
            joined.assert_parity(f"SELECT lt.v FROM lt LEFT JOIN {empty} ON lt.k = rt.k")
        ) == ROWS
        assert not joined.assert_parity(f"SELECT lt.v, rt.w FROM lt JOIN {empty} ON lt.k = rt.k")
        nothing = "(SELECT k, j, v FROM lt WHERE v < 0) AS lt"
        assert not joined.assert_parity(
            f"SELECT rt.w FROM {nothing} LEFT JOIN rt ON lt.k = rt.k"
        )


# ---------------------------------------------------------------------------
# IN lists
# ---------------------------------------------------------------------------


class TestInLists:
    @pytest.mark.parametrize(
        "predicate",
        [
            "n IN (0, 2)",  # NULL probes are never TRUE
            "n NOT IN (0, 2)",
            "k IN (1, NULL, 5)",  # a NULL item: TRUE or NULL, never FALSE
            "k NOT IN (1, NULL, 5)",
            "k IN (1.0, 2, 6.5)",  # float items against an int column
            "f IN (0, 1, -0.5)",  # int items against a float column
            "v NOT IN (1.5, 3.0)",  # NaN and NULL probes
            "big IN (9007199254740993, 9007199254740994)",  # beyond 2**53
            "k IN (1, 2) AND x > 5 AND n IS NOT NULL",  # the AND above stays typed
            "s IN ('g1', 'g3')",  # string operand: the per-element loop
            "s NOT IN ('g1', NULL)",
            "k IN (1, n, 3)",  # a non-literal item
            "k IN (1, 'g1')",  # a non-numeric item
        ],
    )
    def test_parity(self, fact, predicate):
        fact.assert_parity(f"SELECT k, s, n FROM t WHERE {predicate}")
        # Under NOT the NULLs matter: UNKNOWN must stay UNKNOWN.
        fact.assert_parity(f"SELECT COUNT(*) FROM t WHERE NOT ({predicate})")

    def test_selected_counts(self, fact):
        assert len(fact.assert_parity("SELECT k FROM t WHERE k IN (1.0, 2, 6.5)")) == sum(
            1 for i in range(ROWS) if i % 7 in (1, 2)
        )
        assert not fact.assert_parity("SELECT k FROM t WHERE k NOT IN (1, NULL, 5)")

    @pytest.mark.skipif(not arrays.numpy_enabled(), reason="array kernels disabled")
    def test_lowering_and_bail_rules(self):
        def run(text, columns):
            expression = parse_sql(f"SELECT 1 FROM t WHERE {text}")[0].body.where
            return compile_expression_batch(expression)(BatchContext(columns, 3))

        numbers = {"k": arrays.make_column([1, None, 3])}
        lowered = run("k IN (1, NULL) AND k < 9", numbers)
        assert isinstance(lowered, arrays.ArrayColumn)
        assert lowered.tolist() == [True, None, None]
        assert run("k NOT IN (1, 2.5)", numbers).tolist() == [False, None, True]
        # Bails: string operand, non-numeric or non-literal item, bool item.
        assert run("s IN ('a', 'b')", {"s": ["a", None, "c"]}) == [True, None, False]
        for text in ("k IN (1, 'a')", "k IN (1, k)", "k IN (TRUE, 3)"):
            assert isinstance(run(text, numbers), list), text


# ---------------------------------------------------------------------------
# TPC-H
# ---------------------------------------------------------------------------


def test_tpch_three_way_parity():
    """The 21 runnable TPC-H queries at scale 0.3, node for node."""
    engines = Engines([], {}, load=lambda dialect: tpch.load_into(dialect, scale=0.3))
    outcomes = {
        number: engines.assert_parity(sql) for number, sql in tpch.QUERIES.items()
    }
    failing = [number for number, rows in outcomes.items() if rows[:1] == ["error"]]
    assert failing == [15]  # ROADMAP item 1: unknown column 'supplier_no'
    assert sum(1 for rows in outcomes.values() if rows) >= 10
