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
``loops`` node for node — the statement matrix's builder, normaliser and
observables (tests/statement_matrix.py), with the batch size as a local
extra axis.  The numpy mode drops out cleanly when numpy is not
importable; the list mode always runs.

Every join is written with qualified columns whose left operand names the
left input: an unqualified equality written the other way round matches
nothing on this engine (ROADMAP open item 1(a), third known engine bug).

Scans of snapshots with at least ``ARRAY_MIN_ROWS`` rows emit only the
columns the statement names (``TestScanPruning``): the parity cases there
cover the shapes that read columns other than through a plain reference —
``*``, subqueries, derived tables, DML, ambiguous and mixed-case names.
"""

import sys
import threading

import pytest

from repro.benchmarking import tpch
from repro.dialects import create_dialect
from repro.engine import arrays, expressions, vectorized
from repro.engine.expressions import BatchContext, compile_expression_batch
from repro.errors import ExecutionError
from repro.optimizer.physical import OpKind
from repro.sqlparser.parser import parse_sql
from statement_matrix import Matrix, kernel_cells

ROWS = 3 * arrays.ARRAY_MIN_ROWS
BATCH_SIZE = 50
#: Every vectorized run happens at each of these caps (``None``: uncapped).
BATCH_SIZES = (BATCH_SIZE, None)
NAN = float("nan")


class Engines(Matrix):
    """The row oracle and the list and numpy vectorized engines over
    identical tables, loaded through the storage API."""

    def __init__(self, ddl, tables, load=None):
        def fill(dialect):
            for name, rows in tables.items():
                dialect.database.insert_rows(name, rows)
            if load is not None:
                load(dialect)
            dialect.analyze_tables()

        super().__init__(kernel_cells("row", "vectorized"), ddl, fill)

    def assert_parity(self, query, operator=None):
        """All engines agree on *query* at every batch size; returns the
        frozen rows (or ``["error", type name]``).  *operator* names a plan
        node kind the statement must contain."""
        if operator is not None:
            plan = self.dialects[0].planner.plan_statement(parse_sql(query)[0])
            assert any(node.kind is operator for node in plan.walk()), query
        self._batch(BATCH_SIZES[0])
        observed = self.check(query, plan=True)
        # Only the vectorized cells read the batch size.
        for batch_size in BATCH_SIZES[1:]:
            self._batch(batch_size)
            for cell, dialect in zip(self.cells[1:], self.dialects[1:]):
                arrays.set_numpy_enabled(cell.numpy)
                assert self.observe(dialect, query, plan=True) == observed, (
                    f"{query!r} at batch size {batch_size}: {cell} differs from row"
                )
        return observed["rows"] if observed["error"] is None else ["error", observed["error"]]

    def _batch(self, batch_size):
        for dialect in self.dialects[1:]:
            dialect.executor.batch_size = batch_size


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


class TestColumnBinding:
    """A compiled column reference that misses the exact key remembers the
    key it resolved to per batch schema; a failure is never remembered."""

    @pytest.fixture
    def resolutions(self, monkeypatch):
        calls = []
        resolve = expressions._resolve_batch_key

        def counting(columns, reference):
            calls.append(tuple(columns))
            return resolve(columns, reference)

        monkeypatch.setattr(expressions, "_resolve_batch_key", counting)
        return calls

    def test_binds_once_per_schema(self, resolutions):
        compiled = compile_expression_batch(parse_sql("SELECT B FROM t")[0].body.items[0].expression)
        assert compiled(BatchContext({"t.a": [1], "t.b": [2]}, 1)) == [2]
        assert compiled(BatchContext({"t.a": [3], "t.b": [4]}, 1)) == [4]
        assert len(resolutions) == 1
        # Another key order is another schema: the first match may differ.
        assert compiled(BatchContext({"u.b": [5], "t.b": [6]}, 1)) == [5]
        assert compiled(BatchContext({"t.b": [7], "u.b": [8]}, 1)) == [7]
        assert len(resolutions) == 3

    def test_an_unknown_column_raises_on_every_call(self, resolutions):
        compiled = compile_expression_batch(parse_sql("SELECT nope FROM t")[0].body.items[0].expression)
        for _ in range(3):
            with pytest.raises(ExecutionError, match="unknown column 'nope'"):
                compiled(BatchContext({"t.a": [1]}, 1))
        assert len(resolutions) == 3


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
# Scans emit only referenced columns
# ---------------------------------------------------------------------------


def _wide_row(i):
    return {
        "a": i % 9, "b": i % 5, "c": (i * 7) % 11, "k": i % 4,
        "Mixed": None if i % 10 == 0 else i % 3, "s": "s%d" % (i % 6), "z": i,
    }


def _narrow_row(i):
    return {"x": i % 12, "k": i % 5, "y": i}


PRUNING_DDL = [
    "CREATE TABLE p (a INT, b INT, c INT, k INT, Mixed INT, s TEXT, z INT)",
    "CREATE TABLE q (x INT, k INT, y INT)",
    "CREATE INDEX pa ON p (a)",
]


@pytest.fixture(scope="module")
def pruned():
    return Engines(
        PRUNING_DDL,
        {
            "p": [_wide_row(i) for i in range(ROWS)],
            "q": [_narrow_row(i) for i in range(arrays.ARRAY_MIN_ROWS)],
        },
    )


PRUNING_CASES = {
    "count, no columns": "SELECT COUNT(*) FROM p",
    "count, cross join of two column-less scans": "SELECT COUNT(*) FROM p CROSS JOIN q",
    "star": "SELECT * FROM p WHERE b < 2",
    "qualified star": "SELECT p.* FROM p JOIN q ON p.a = q.x WHERE q.y < 30",
    "exists star": "SELECT z FROM p WHERE EXISTS (SELECT * FROM q WHERE q.y < 5)",
    "correlated exists on an unselected column":
        "SELECT z FROM p WHERE EXISTS (SELECT 1 FROM q WHERE q.x = p.c)",
    "correlated scalar on an unselected column":
        "SELECT a, (SELECT COUNT(*) FROM q WHERE q.k = p.b) AS n FROM p WHERE z < 40",
    "init-plan": "SELECT z FROM p WHERE b = (SELECT MAX(k) FROM q)",
    "derived table": "SELECT d.y FROM (SELECT a AS y, b FROM p WHERE c < 5) AS d WHERE d.b > 1",
    "ambiguous name keeps first-match order": "SELECT k FROM p JOIN q ON p.a = q.x",
    "ambiguous name in a filter": "SELECT z, y FROM p JOIN q ON p.a = q.x WHERE k > 2",
    "mixed case": "SELECT MIXED, p.A FROM p WHERE mixed > 0 AND B < 3",
    "order by an unselected column": "SELECT a FROM p ORDER BY c DESC, Z",
    "left join padded with NULLs": "SELECT p.z, q.y FROM p LEFT JOIN q ON p.a = q.x AND q.y < 20",
    "index scan, repeated IN values": "SELECT z FROM p WHERE a IN (1, 2, 1)",
    "index range scan": "SELECT b FROM p WHERE a BETWEEN 2 AND 4 ORDER BY z",
    "group by": "SELECT s, COUNT(*), SUM(c) FROM p GROUP BY s",
    "union": "SELECT a FROM p WHERE b = 1 UNION SELECT x FROM q",
}


class TestScanPruning:
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_parity(self, pruned, case):
        pruned.assert_parity(PRUNING_CASES[case])

    def test_column_less_counts(self, pruned):
        assert pruned.assert_parity("SELECT COUNT(*) FROM p CROSS JOIN q") == [
            (("COUNT(*)", repr(ROWS * arrays.ARRAY_MIN_ROWS)),)
        ]

    def test_insert_select(self):
        engines = Engines(
            PRUNING_DDL + ["CREATE TABLE target (u INT, v TEXT)"],
            {"p": [_wide_row(i) for i in range(ROWS)]},
        )
        engines.check("INSERT INTO target SELECT c, s FROM p WHERE b < 3")
        rows = engines.check("SELECT u, v FROM target")["rows"]
        assert len(rows) == sum(1 for i in range(ROWS) if i % 5 < 3)

    # -- mechanism ----------------------------------------------------------------

    WIDE = [chr(ord("a") + i) for i in range(16)]

    def _wide_dialect(self, rows, executor="vectorized"):
        dialect = create_dialect("postgresql", executor=executor)
        dialect.execute("CREATE TABLE t (" + ", ".join(f"{c} INT" for c in self.WIDE) + ")")
        dialect.database.insert_rows(
            "t", [{c: (i * (j + 1)) % 13 for j, c in enumerate(self.WIDE)} for i in range(rows)]
        )
        dialect.analyze_tables()
        return dialect

    @pytest.fixture
    def scan_keys(self, monkeypatch):
        """The key set of every batch a sequential scan emits."""
        seen = []
        scan = vectorized._BATCH_HANDLERS[OpKind.SEQ_SCAN]

        def recording(executor, node, analyze):
            batches = scan(executor, node, analyze)
            seen.extend(batch.schema() for batch in batches)
            return batches

        monkeypatch.setitem(vectorized._BATCH_HANDLERS, OpKind.SEQ_SCAN, recording)
        return seen

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_a_sixteen_column_scan_gathers_three(self, scan_keys, use_numpy):
        if use_numpy and not arrays.numpy_enabled():
            pytest.skip("array kernels disabled")
        arrays.set_numpy_enabled(use_numpy)
        dialect = self._wide_dialect(100)
        rows = dialect.execute("SELECT a FROM t WHERE b < 5 ORDER BY c")
        assert rows and set(scan_keys) == {("t.a", "t.b", "t.c")}

    def test_a_star_or_a_small_table_keeps_every_column(self, scan_keys):
        self._wide_dialect(100).execute("SELECT * FROM t WHERE b < 5")
        # ROW_PATH_THRESHOLD <= 40 < ARRAY_MIN_ROWS: batch path, no pruning.
        self._wide_dialect(40).execute("SELECT a FROM t WHERE b < 5")
        assert [len(keys) for keys in scan_keys] == [16, 16]

    def test_threads_sharing_a_cached_plan_agree(self):
        # The service's reader threads share one executor and one cached
        # plan: the per-plan caches fill under concurrent first executions.
        dialect, oracle = self._wide_dialect(100), self._wide_dialect(100, "row")
        for engine in (dialect, oracle):
            engine.execute("CREATE INDEX ta ON t (a)")
        queries = [
            "SELECT b FROM t WHERE a IN (3, 4, 3) AND c < 10",
            "SELECT x.d, y.e FROM t AS x JOIN t AS y ON x.a = y.b WHERE x.c < 3",
            "SELECT g, COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t AS u WHERE u.h = t.k) GROUP BY g",
        ]
        expected = [oracle.execute(query) for query in queries]
        assert all(expected)
        failures = []

        def reader(offset):
            for round_ in range(12):
                query = (offset + round_) % len(queries)
                if dialect.execute(queries[query]) != expected[query]:
                    failures.append(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_static_work_runs_once_per_plan(self, monkeypatch):
        counts = {"names": 0, "bounds": 0}

        def counting(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            vectorized, "_referenced_names", counting("names", vectorized._referenced_names)
        )
        monkeypatch.setattr(
            vectorized, "_extract_bounds", counting("bounds", vectorized._extract_bounds)
        )
        dialect = self._wide_dialect(100)
        dialect.execute("CREATE INDEX ta ON t (a)")
        dialect.analyze_tables()
        query = "SELECT b FROM t WHERE a = 3 AND c < 10"
        results = [dialect.execute(query) for _ in range(3)]
        assert results[0] and results.count(results[0]) == 3
        assert counts == {"names": 1, "bounds": 1}


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
