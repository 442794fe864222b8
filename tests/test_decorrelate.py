"""The decorrelation oracle-equivalence harness.

PR 5 rewrites uncorrelated ``IN`` / ``EXISTS`` WHERE conjuncts into hash
semi/anti joins.  The undecorrelated per-row path stays behind
``decorrelate=False`` as the correctness oracle: both settings must produce
identical result rows, row order, and rejections for every query, and — for
queries the rewrite does not touch — identical serialized plans and unified
fingerprints; the statement matrix (tests/test_statement_matrix.py) checks
both over the generator corpus.  The campaign-level contract — flipping
decorrelation changes only the plans (coverage), never the results (Table
V) — is checked by the engine-configuration matrix in
tests/test_engine_config.py.

The NOT IN + inner-NULL trap is covered explicitly: under three-valued
logic, any NULL in the inner relation makes ``x NOT IN (…)`` unsatisfiable,
so the anti join must return nothing.

PR 16 adds init-plans: a provably uncorrelated subquery the rewrite leaves
in a filter or a select list is planned once and evaluated at most once per
statement.  The same oracle judges it over a pairwise cover of the engine
settings (``TestInitPlanFuzz``), and the "once" is asserted by counting,
not by timing (``TestInitPlanCounts``).
"""

import json
import random
import threading

import pytest

from repro.benchmarking import tpch
from repro.converters import ConverterHub
from repro.core.compare import structural_fingerprint
from repro.dialects import create_dialect
from repro.dialects.prepared import reset_runtime
from repro.engine.executor import Executor
from repro.optimizer.bounds import bound_violations
from repro.optimizer.physical import ATTACHED_KEYS, INIT_PLANS, SUBPLANS, OpKind
from repro.optimizer.planner import Planner
from repro.service import QueryService, ServiceClient, ServiceDialect
from repro.sqlparser.parser import parse_one, parse_sql
from statement_matrix import AXES, Matrix, attempt, cells, freeze, kernel_cells, uncovered_pairs


class TestSemiAntiSemantics:
    """Hand-picked three-valued-logic cases, exact expected rows."""

    @pytest.fixture(params=["row", "vectorized"])
    def executor(self, request):
        return request.param

    @pytest.fixture(params=[True, False], ids=["decorrelate", "per-row"])
    def dialect(self, request, executor):
        dialect = create_dialect("postgresql", decorrelate=request.param)
        dialect.reconfigure(executor=executor)
        dialect.execute("CREATE TABLE t (a INT, b INT)")
        dialect.execute("CREATE TABLE s (x INT)")
        dialect.execute(
            "INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, NULL), (NULL, 40)"
        )
        return dialect

    def _values(self, rows):
        return [row["a"] for row in rows]

    def test_in_matches_and_null_probe_filtered(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (1), (3)")
        rows = dialect.execute("SELECT a FROM t WHERE a IN (SELECT x FROM s)")
        assert self._values(rows) == [1, 3]

    def test_in_with_inner_null_still_matches(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (NULL), (2)")
        rows = dialect.execute("SELECT a FROM t WHERE a IN (SELECT x FROM s)")
        assert self._values(rows) == [2]

    def test_not_in_excludes_matches_and_null_probe(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (1), (3)")
        rows = dialect.execute("SELECT a FROM t WHERE a NOT IN (SELECT x FROM s)")
        assert self._values(rows) == [2]

    def test_not_in_inner_null_trap_empties_result(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (1), (NULL)")
        rows = dialect.execute("SELECT a FROM t WHERE a NOT IN (SELECT x FROM s)")
        assert rows == []

    def test_not_in_empty_inner_keeps_everything(self, dialect):
        rows = dialect.execute("SELECT a FROM t WHERE a NOT IN (SELECT x FROM s)")
        # Even the NULL probe row: x NOT IN (empty) is TRUE for every x.
        assert len(rows) == 4

    def test_in_empty_inner_keeps_nothing(self, dialect):
        rows = dialect.execute("SELECT a FROM t WHERE a IN (SELECT x FROM s)")
        assert rows == []

    def test_exists_is_an_emptiness_test(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (7)")
        rows = dialect.execute("SELECT a FROM t WHERE EXISTS (SELECT x FROM s)")
        assert len(rows) == 4
        rows = dialect.execute(
            "SELECT a FROM t WHERE EXISTS (SELECT x FROM s WHERE x > 100)"
        )
        assert rows == []

    def test_not_exists(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (7)")
        rows = dialect.execute("SELECT a FROM t WHERE NOT EXISTS (SELECT x FROM s)")
        assert rows == []
        rows = dialect.execute(
            "SELECT a FROM t WHERE NOT EXISTS (SELECT x FROM s WHERE x > 100)"
        )
        assert len(rows) == 4

    def test_combined_with_plain_predicates(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (1), (2)")
        rows = dialect.execute(
            "SELECT a FROM t WHERE b >= 20 AND a IN (SELECT x FROM s)"
        )
        assert self._values(rows) == [2]

    def test_double_negation_folds_back_to_semi(self, dialect):
        dialect.execute("INSERT INTO s (x) VALUES (1)")
        rows = dialect.execute(
            "SELECT a FROM t WHERE NOT (a NOT IN (SELECT x FROM s))"
        )
        assert self._values(rows) == [1]


class TestPlanShapes:
    """The rewrite fires exactly when it is sound."""

    def _planner(self, decorrelate=True):
        dialect = create_dialect("postgresql", decorrelate=decorrelate)
        dialect.execute("CREATE TABLE t (a INT, b INT)")
        dialect.execute("CREATE TABLE s (x INT, y INT)")
        return dialect.planner

    def _plan(self, planner, query):
        return planner.plan_statement(parse_sql(query)[0])

    def test_in_becomes_semi_join(self):
        plan = self._plan(
            self._planner(), "SELECT a FROM t WHERE a IN (SELECT x FROM s)"
        )
        assert plan.find(OpKind.SEMI_JOIN)
        assert not plan.find(OpKind.FILTER)

    def test_not_exists_becomes_anti_join(self):
        plan = self._plan(
            self._planner(), "SELECT a FROM t WHERE NOT EXISTS (SELECT x FROM s)"
        )
        assert plan.find(OpKind.ANTI_JOIN)

    def test_decorrelate_off_keeps_filter(self):
        plan = self._plan(
            self._planner(decorrelate=False),
            "SELECT a FROM t WHERE a IN (SELECT x FROM s)",
        )
        assert not plan.find(OpKind.SEMI_JOIN)
        assert plan.find(OpKind.FILTER)

    def test_correlated_subquery_keeps_per_row_path(self):
        plan = self._plan(
            self._planner(),
            "SELECT a FROM t WHERE a IN (SELECT x FROM s WHERE s.y = t.b)",
        )
        assert not plan.find(OpKind.SEMI_JOIN)
        assert plan.find(OpKind.FILTER)

    def test_unresolvable_unqualified_reference_keeps_per_row_path(self):
        # ``b`` is a column of t, not of s: the subquery is correlated.
        plan = self._plan(
            self._planner(), "SELECT a FROM t WHERE a IN (SELECT b FROM s)"
        )
        assert not plan.find(OpKind.SEMI_JOIN)

    def test_nested_derived_table_scope_is_not_flattened(self):
        # ``b`` is visible only *inside* the derived table, not at the
        # subquery level (only d2.x is), so it correlates to the outer t.b;
        # a flattened alias map would wrongly decorrelate.
        plan = self._plan(
            self._planner(),
            "SELECT a FROM t WHERE a IN "
            "(SELECT x FROM (SELECT x FROM s) AS d2 WHERE b > 5)",
        )
        assert not plan.find(OpKind.SEMI_JOIN)

    @pytest.mark.parametrize(
        "tables, rows, query, expected",
        [
            # ``b`` is visible only inside the derived table's source: it
            # correlates to the outer t.b, whose row passes ``b > 5``.
            ("t (a INT, b INT)", ["t (a, b) VALUES (1, 10)", "u (x, b) VALUES (1, 99)"],
             "SELECT a FROM t WHERE a IN (SELECT x FROM (SELECT x FROM u) AS d2 WHERE b > 5)",
             [1]),
            # GROUP BY inside a predicate subquery may reference outer
            # columns; the plan-time unknown-column validation must not
            # reject it.
            ("t (a INT)", ["t (a) VALUES (1), (2)", "s (x) VALUES (5)"],
             "SELECT a FROM t WHERE EXISTS (SELECT x FROM s GROUP BY x, a)", [1, 2]),
            # 2**53 and 2**53 + 1 collide as floats; the semi-join key set
            # must follow _compare's exact == like the per-row oracle.
            ("t (a INT)", ["t (a) VALUES (9007199254740993)", "s (x) VALUES (9007199254740992)"],
             "SELECT a FROM t WHERE a IN (SELECT x FROM s)", []),
            ("t (a INT, b INT)", ["t (a, b) VALUES (1, 1), (2, 9)", "s (x, y) VALUES (1, 1), (2, 2)"],
             "SELECT a FROM t WHERE a IN (SELECT x FROM s WHERE s.y = t.b)", [1]),
        ],
        ids=["nested-derived-table", "correlated-group-by", "large-integer-keys", "correlated"],
    )
    def test_results_identical_with_and_without_decorrelation(self, tables, rows, query, expected):
        setup = [f"CREATE TABLE {tables}", "CREATE TABLE s (x INT, y INT)",
                 "CREATE TABLE u (x INT, b INT)"] + [f"INSERT INTO {row}" for row in rows]
        matrix = Matrix(cells(("vectorized", True, True, True, True),
                              ("vectorized", True, False, True, True)), setup)
        assert matrix.check(query)["rows"] == freeze([{"a": a} for a in expected])

    def test_reconfigure_decorrelate_clears_cached_plans(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("CREATE TABLE s (x INT)")
        query = "SELECT a FROM t WHERE a IN (SELECT x FROM s)"
        dialect.execute(query)
        dialect.reconfigure(decorrelate=False)
        plan = dialect.planner.plan_statement(parse_sql(query)[0])
        assert not plan.find(OpKind.SEMI_JOIN)
        # The cached decorrelated plan must not be served after the switch.
        text_key, statements = dialect.prepared.parse(query)
        cached = dialect.prepared.plan(
            text_key,
            0,
            dialect.database.version,
            lambda: dialect.planner.plan_statement(statements[0]),
        )
        assert not cached.find(OpKind.SEMI_JOIN)


class TestAnalyzeParity:
    """EXPLAIN ANALYZE row counts agree between executors for semi/anti."""

    QUERIES = (
        "SELECT a FROM t WHERE a IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE a NOT IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE EXISTS (SELECT x FROM s WHERE x > 1)",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT x FROM s WHERE x > 1)",
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_runtime_counts_match(self, query):
        Matrix(kernel_cells("row", "vectorized"), [
            "CREATE TABLE t (a INT)",
            "CREATE TABLE s (x INT)",
            "INSERT INTO t (a) VALUES (1), (2), (3)",
            "INSERT INTO s (x) VALUES (1), (3)",
        ]).check(query, plan=True)


class TestOperatorUniverse:
    """Semi/anti operators surface through converters and grow coverage."""

    SETUP = (
        "CREATE TABLE t (a INT, b INT)",
        "CREATE TABLE s (x INT)",
        "INSERT INTO t (a, b) VALUES (1, 10), (2, 20)",
        "INSERT INTO s (x) VALUES (1)",
    )
    QUERIES = (
        "SELECT a FROM t WHERE a IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE a NOT IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE EXISTS (SELECT x FROM s)",
        "SELECT a FROM t",
    )

    def _operator_names(self, dbms, decorrelate):
        dialect = create_dialect(dbms, decorrelate=decorrelate)
        for statement in self.SETUP:
            dialect.execute(statement)
        hub = ConverterHub()
        converter = hub.converter(dbms)
        names = set()
        for query in self.QUERIES:
            output = dialect.explain(query, format=converter.formats[0])
            plan = hub.convert(dbms, output.text, converter.formats[0])
            for node in plan.root.walk():
                names.add(node.operation.identifier)
        return names

    @pytest.mark.parametrize("dbms", ["postgresql", "mysql"])
    def test_semi_and_anti_join_names_appear(self, dbms):
        names = self._operator_names(dbms, decorrelate=True)
        assert "Semi Join" in names
        assert "Anti Join" in names

    @pytest.mark.parametrize(
        "dbms", ["postgresql", "mysql", "tidb", "sqlite", "sqlserver", "sparksql"]
    )
    def test_every_relational_dialect_shapes_and_converts(self, dbms):
        # No dialect may crash shaping the new operators, and every plan
        # must convert into the unified representation.
        names = self._operator_names(dbms, decorrelate=True)
        assert names

    def test_operator_universe_strictly_grows(self):
        decorrelated = self._operator_names("postgresql", decorrelate=True)
        per_row = self._operator_names("postgresql", decorrelate=False)
        assert decorrelated > per_row

    def test_structural_fingerprints_differ_for_subquery_plans(self):
        hub = ConverterHub()
        fingerprints = {}
        for decorrelate in (True, False):
            dialect = create_dialect("postgresql", decorrelate=decorrelate)
            for statement in self.SETUP:
                dialect.execute(statement)
            output = dialect.explain(self.QUERIES[0], format="json")
            plan = hub.convert("postgresql", output.text, "json", use_cache=False)
            fingerprints[decorrelate] = structural_fingerprint(plan)
        assert fingerprints[True] != fingerprints[False]


# ---------------------------------------------------------------------------
# PR 16: init-plans
# ---------------------------------------------------------------------------


def _attached(plan, key):
    """Every plan attached under *key* anywhere in *plan* (nested included)."""
    return [
        attached
        for node in plan.walk(ATTACHED_KEYS)
        for attached in node.info.get(key, ())
    ]


def _shaped_nodes(node):
    """*node* and every node below it in a PostgreSQL JSON plan."""
    stack, shaped = [node], []
    while stack:
        shaped.append(stack.pop())
        stack.extend(shaped[-1].get("Plans", ()))
    return shaped


class _SubqueryShapes:
    """Seeded queries whose subqueries the semi/anti rewrite leaves in place.

    ``t`` is the outer table; ``s`` and ``u`` feed the subqueries.  ``u.b``
    shares its name with ``t.b`` so the look-alikes have something to
    capture.
    """

    def __init__(self, seed):
        self.random = random.Random(seed)

    def setup_statements(self):
        rng = self.random

        def values(count, width):
            rows = []
            for _ in range(count):
                cells = [
                    "NULL" if rng.random() < 0.08 else str(rng.randrange(12))
                    for _ in range(width)
                ]
                rows.append("(" + ", ".join(cells) + ")")
            return ", ".join(rows)

        return [
            "CREATE TABLE t (a INT, b INT)",
            "CREATE TABLE s (x INT, y INT)",
            "CREATE TABLE u (k INT, b INT)",
            "CREATE TABLE e (z INT)",
            # Forty outer rows: above the vectorized row-path threshold.
            f"INSERT INTO t (a, b) VALUES {values(40, 2)}",
            f"INSERT INTO s (x, y) VALUES {values(25, 2)}",
            f"INSERT INTO u (k, b) VALUES {values(15, 2)}",
        ]

    def mutation(self):
        return f"INSERT INTO s (x, y) VALUES ({self.random.randrange(12)}, 11)"

    # -- subqueries ----------------------------------------------------------

    def _scalar(self):
        c = self.random.randrange(10)
        return self.random.choice([
            "(SELECT MAX(x) FROM s)",
            f"(SELECT AVG(y) FROM s WHERE x > {c})",
            "(SELECT MIN(z) FROM e)",
            # Nested two deep, every level self-contained.
            f"(SELECT COUNT(*) FROM u WHERE k IN (SELECT x FROM s WHERE y > {c}))",
            "(SELECT MIN(k) FROM u WHERE u.b > (SELECT AVG(y) FROM s))",
            # Look-alikes that must stay per-row: ``a`` is the outer t.a ...
            f"(SELECT COUNT(*) FROM s WHERE x > a - {c})",
            # ... ``b`` is exported by neither derived table, so it is t.b ...
            "(SELECT COUNT(*) FROM (SELECT k FROM u) AS d WHERE k < b)",
            # ... and the nested level correlates to the middle one.
            "(SELECT COUNT(*) FROM u WHERE EXISTS (SELECT x FROM s WHERE x = u.k))",
        ])

    def _predicate(self, probe):
        c = self.random.randrange(10)
        negated = self.random.choice(["", "NOT "])
        return self.random.choice([
            f"{probe} {negated}IN (SELECT x FROM s WHERE y > {c})",
            f"{probe} {negated}IN (SELECT z FROM e)",
            f"{negated}EXISTS (SELECT x FROM s WHERE x > {c + 2})",
            f"{probe} > {self._scalar()}",
            f"{probe} {negated}IN (SELECT x FROM s WHERE s.y = t.b)",
        ])

    def query(self):
        c = self.random.randrange(10)
        shape = self.random.randrange(6)
        if shape == 0:  # under OR: not a conjunct the rewrite can take
            return f"SELECT a, b FROM t WHERE b > {c} OR {self._predicate('a')}"
        if shape == 1:  # scalar comparison in WHERE
            return f"SELECT a, b FROM t WHERE a <= {self._scalar()}"
        if shape == 2:  # select list
            return f"SELECT a, {self._scalar()} AS v FROM t WHERE b < {c}"
        if shape == 3:  # HAVING over a grouped column and an aggregate
            return (
                "SELECT a, COUNT(*) AS n FROM t GROUP BY a "
                f"HAVING COUNT(*) > {self._scalar()} OR {self._predicate('a')}"
            )
        if shape == 4:  # select list above an aggregate
            return f"SELECT a, {self._scalar()} AS v, SUM(b) AS total FROM t GROUP BY a"
        # The grouped name is a bare key of the HAVING row, which the engine
        # resolves before u.b: self-contained by SQL scoping, per-row here.
        return (
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b "
            f"HAVING COUNT(*) >= (SELECT COUNT(*) FROM u WHERE b = {c})"
        )


class TestInitPlanFuzz:
    """decorrelate x executor x cache x kernels: one answer per query."""

    SEEDS = (11, 12)
    QUERIES_PER_SEED = 30
    MUTATE_EVERY = 10
    #: A pairwise cover of the 2 x 3 x 2 x 2 space.  The first cell is the
    #: behaviour before init-plans: per-row, row executor, nothing cached.
    CELLS = cells(
        ("row", False, False, True, False),
        ("row", True, True, True, True),
        ("vectorized", True, False, True, True),
        ("vectorized", False, True, True, False),
        ("parallel", True, True, True, False),
        ("parallel", False, False, True, True),
    )

    def test_cells_cover_every_pair_of_values(self):
        axes = ("executor", "prepared_cache", "decorrelate", "numpy")
        assert uncovered_pairs(self.CELLS, {axis: AXES[axis] for axis in axes}) == set()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_configuration_agrees(self, seed):
        shapes = _SubqueryShapes(seed)
        matrix = Matrix(self.CELLS, shapes.setup_statements())
        answered = 0
        for position in range(1, self.QUERIES_PER_SEED + 1):
            answered += matrix.check(shapes.query(), repeat=True)["error"] is None
            if position % self.MUTATE_EVERY == 0:
                matrix.check(shapes.mutation())
        assert answered >= self.QUERIES_PER_SEED * 3 // 4

    def test_shapes_cover_both_classes(self):
        dialect = create_dialect("postgresql")
        shapes = _SubqueryShapes(11)
        for statement in shapes.setup_statements():
            dialect.execute(statement)
        init_plans = subplans = 0
        for _ in range(120):
            plan = dialect.planner.plan_statement(parse_one(shapes.query()))
            init_plans += len(_attached(plan, INIT_PLANS))
            subplans += len(_attached(plan, SUBPLANS))
        assert init_plans >= 40 and subplans >= 40


class TestInitPlanClassification:
    """The PR-5 proof decides; look-alikes stay per-row."""

    def _plan(self, query, decorrelate=True):
        dialect = create_dialect("postgresql", decorrelate=decorrelate)
        dialect.execute("CREATE TABLE t (a INT, b INT)")
        dialect.execute("CREATE TABLE s (x INT, y INT)")
        dialect.execute("CREATE TABLE u (k INT, b INT)")
        return dialect.planner.plan_statement(parse_one(query))

    @pytest.mark.parametrize("query", [
        "SELECT a FROM t WHERE b > 1 OR a IN (SELECT x FROM s)",
        "SELECT a FROM t WHERE a > (SELECT MAX(x) FROM s)",
        "SELECT a, (SELECT MAX(x) FROM s) AS m FROM t",
        "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > (SELECT MIN(y) FROM s)",
        "SELECT a FROM t WHERE b > 1 OR NOT EXISTS (SELECT x FROM s WHERE y = 3)",
    ])
    def test_uncorrelated_subqueries_become_init_plans(self, query):
        plan = self._plan(query)
        assert len(_attached(plan, INIT_PLANS)) == 1
        assert not _attached(plan, SUBPLANS)
        # ... and the per-row oracle keeps them all as subplans.
        oracle = self._plan(query, decorrelate=False)
        assert len(_attached(oracle, SUBPLANS)) == 1
        assert not _attached(oracle, INIT_PLANS)

    def test_nested_uncorrelated_levels_are_each_an_init_plan(self):
        plan = self._plan(
            "SELECT a FROM t WHERE a > (SELECT COUNT(*) FROM u "
            "WHERE u.b > (SELECT AVG(y) FROM s))"
        )
        assert len(_attached(plan, INIT_PLANS)) == 2

    @pytest.mark.parametrize("query", [
        # Unqualified outer column.
        "SELECT a FROM t WHERE b > (SELECT COUNT(*) FROM s WHERE x > a)",
        # Visible only inside the nested derived table.
        "SELECT a FROM t WHERE a > (SELECT COUNT(*) FROM (SELECT k FROM u) AS d WHERE b > 5)",
        # Qualified outer reference.
        "SELECT a, (SELECT MAX(x) FROM s WHERE s.y = t.b) AS m FROM t",
        # A grouped name is a bare key of the HAVING row: the engine reads
        # it before u.b, so the subquery is not provably self-contained.
        "SELECT b, COUNT(*) FROM t GROUP BY b "
        "HAVING COUNT(*) > (SELECT COUNT(*) FROM u WHERE b = 1)",
        "SELECT b, (SELECT COUNT(*) FROM u WHERE b = 1) AS m FROM t GROUP BY b",
    ])
    def test_look_alikes_stay_subplans(self, query):
        plan = self._plan(query)
        assert not _attached(plan, INIT_PLANS)
        assert len(_attached(plan, SUBPLANS)) == 1

    def test_exposed_names_reach_nested_levels(self):
        # The innermost level is self-contained by SQL scoping, but it is
        # evaluated under the HAVING row, whose bare key ``b`` it would read.
        plan = self._plan(
            "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > "
            "(SELECT COUNT(*) FROM s WHERE s.x = t.b "
            "AND s.y > (SELECT COUNT(*) FROM u WHERE b = 1))"
        )
        assert not _attached(plan, INIT_PLANS)
        assert len(_attached(plan, SUBPLANS)) == 2

    def test_estimates_and_costs_do_not_move(self):
        query = "SELECT a FROM t WHERE b > 1 OR a IN (SELECT x FROM s)"
        on, off = self._plan(query), self._plan(query, decorrelate=False)
        for on_node, off_node in zip(on.walk(ATTACHED_KEYS), off.walk(ATTACHED_KEYS)):
            assert on_node.kind is off_node.kind
            assert on_node.estimated_rows == off_node.estimated_rows
            assert on_node.cost == off_node.cost


class TestInitPlanCounts:
    """"Once" is counted, never timed."""

    @pytest.fixture(scope="class")
    def tpch_dialect(self):
        # Scale 1.0: below it no supplier is in Q11's nation, no group
        # reaches the HAVING clause, and the init-plan never runs.
        dialect = create_dialect("postgresql")
        tpch.load_into(dialect, scale=1.0)
        return dialect

    @pytest.mark.parametrize("executor", ["row", "vectorized", "parallel"])
    @pytest.mark.parametrize("number", [11, 22])
    def test_tpch_init_plan_nodes_loop_once(self, tpch_dialect, executor, number):
        tpch_dialect.reconfigure(executor=executor)
        plan = tpch_dialect.planner.plan_statement(parse_one(tpch.QUERIES[number]))
        init_plans = _attached(plan, INIT_PLANS)
        assert len(init_plans) == 1
        # Twice on one tree, as a cached plan is: loops must not accumulate.
        for _ in range(2):
            rows = tpch_dialect.executor.execute(reset_runtime(plan), analyze=True)
            assert rows
            for node in init_plans[0].walk():
                assert node.runtime.executed
                assert node.runtime.loops == 1
            assert init_plans[0].runtime.actual_rows == 1
            assert bound_violations(plan) == []

    @pytest.mark.parametrize("number", [11, 22])
    def test_analyze_counts_match_across_executors(self, tpch_dialect, number):
        counts = {}
        for executor in ("row", "vectorized"):
            tpch_dialect.reconfigure(executor=executor)
            plan = tpch_dialect.planner.plan_statement(parse_one(tpch.QUERIES[number]))
            tpch_dialect.executor.execute(plan, analyze=True)
            counts[executor] = [
                (node.kind, node.runtime.actual_rows, node.runtime.loops)
                for node in plan.walk(ATTACHED_KEYS)
            ]
        assert counts["row"] == counts["vectorized"]

    def test_bound_oracle_silent_on_every_timed_tpch_query(self, tpch_dialect):
        tpch_dialect.reconfigure(executor="vectorized")
        for number, sql in tpch.QUERIES.items():
            if number == 15:  # ROADMAP item 1(b): does not execute yet
                continue
            assert not tpch_dialect.explain(sql, analyze=True).bound_violations, number

    def test_cached_plan_executes_without_planning(self, tpch_dialect, monkeypatch):
        tpch_dialect.reconfigure(executor="vectorized")
        queries = [
            tpch.QUERIES[11],
            tpch.QUERIES[22],
            # A correlated subplan reuses its attached plan too.
            "SELECT s_suppkey FROM supplier WHERE s_acctbal > "
            "(SELECT AVG(ps_supplycost) FROM partsupp WHERE ps_suppkey = s_suppkey)",
        ]
        expected = [tpch_dialect.execute(query) for query in queries]
        calls = []
        for name in ("plan_statement", "plan_select", "plan_subquery"):
            original = getattr(Planner, name)

            def counted(self, statement, _original=original, _name=name):
                calls.append(_name)
                return _original(self, statement)

            monkeypatch.setattr(Planner, name, counted)
        assert [tpch_dialect.execute(query) for query in queries] == expected
        assert calls == []

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_empty_outer_relation_never_runs_the_init_plan(self, executor):
        dialect = create_dialect("postgresql", executor=executor)
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("CREATE TABLE s (x INT)")
        dialect.execute("INSERT INTO s (x) VALUES " + ", ".join(f"({i})" for i in range(40)))
        # NO_SUCH_FUNCTION fails only when a row is evaluated: with no outer
        # row the per-row path never gets there, and neither may this one.
        query = "SELECT a FROM t WHERE a > (SELECT MAX(NO_SUCH_FUNCTION(x)) FROM s)"
        plan = dialect.planner.plan_statement(parse_one(query))
        assert dialect.executor.execute(plan, analyze=True) == []
        (init_plan,) = _attached(plan, INIT_PLANS)
        assert not any(node.runtime.executed for node in init_plan.walk())
        # EXPLAIN ANALYZE shows it the way PostgreSQL does: never executed.
        document = json.loads(dialect.explain(query, format="json", analyze=True).text)
        (init_node,) = [
            node for node in _shaped_nodes(document[0]["Plan"])
            if node.get("Parent Relationship") == "InitPlan"
        ]
        assert "Actual Rows" in document[0]["Plan"]
        assert "Actual Rows" not in init_node
        # One outer row later the rejection appears, as on the per-row path.
        dialect.execute("INSERT INTO t (a) VALUES (1)")
        oracle = create_dialect("postgresql", executor=executor, decorrelate=False)
        for statement in ("CREATE TABLE t (a INT)", "CREATE TABLE s (x INT)",
                          "INSERT INTO s (x) VALUES (1)", "INSERT INTO t (a) VALUES (1)"):
            oracle.execute(statement)
        outcome = attempt(lambda: dialect.execute(query))
        assert outcome == attempt(lambda: oracle.execute(query))
        assert outcome[:2] == ("error", "ExecutionError")

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_memo_does_not_outlive_the_call(self, executor):
        dialect = create_dialect("postgresql", executor=executor)
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("CREATE TABLE s (x INT)")
        dialect.execute("INSERT INTO t (a) VALUES " + ", ".join(f"({i})" for i in range(40)))
        dialect.execute("INSERT INTO s (x) VALUES (10)")
        plan = dialect.planner.plan_statement(
            parse_one("SELECT a FROM t WHERE a > (SELECT MAX(x) FROM s)")
        )
        assert len(dialect.executor.execute(plan)) == 29
        # The same tree again after the heap changed underneath it.
        dialect.database.insert_rows("s", [{"x": 30}])
        assert len(dialect.executor.execute(plan)) == 9

    @staticmethod
    def _outer_inner_dialect(executor, decorrelate):
        """300 outer rows ``o.a`` (0..79 cycling) and 40 inner ``i.x`` (even 0..78)."""
        dialect = create_dialect("postgresql", executor=executor, decorrelate=decorrelate)
        dialect.execute("CREATE TABLE o (a INT)")
        dialect.execute("CREATE TABLE i (x INT)")
        dialect.execute(
            "INSERT INTO o (a) VALUES " + ", ".join(f"({v % 80})" for v in range(300))
        )
        dialect.execute(
            "INSERT INTO i (x) VALUES " + ", ".join(f"({v * 2})" for v in range(40))
        )
        dialect.analyze_tables()
        return dialect

    @pytest.fixture
    def subquery_calls(self, monkeypatch):
        """Every ``Executor._run_subquery`` call, recorded as it happens."""
        calls = []
        original = Executor._run_subquery

        def counted(self, query, outer_row):
            calls.append(query)
            return original(self, query, outer_row)

        monkeypatch.setattr(Executor, "_run_subquery", counted)
        return calls

    def _assert_inner_scanned_once(self, dialect, query, join_type, inner_rows):
        document = json.loads(dialect.explain(query, format="json", analyze=True).text)
        (join,) = [
            node for node in _shaped_nodes(document[0]["Plan"])
            if node["Node Type"] == join_type
        ]
        (inner,) = [
            node for node in _shaped_nodes(join) if node.get("Relation Name") == "i"
        ]
        assert inner["Node Type"] == "Seq Scan"
        assert (inner["Actual Loops"], inner["Actual Rows"]) == (1, inner_rows)

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_in_subquery_inner_runs_once_decorrelated_and_per_row_otherwise(
        self, executor, subquery_calls
    ):
        """O(outer + inner) against O(outer x inner), counted.

        EXPLAIN ANALYZE never reports a per-row subplan's loops, so the
        per-row side is counted at ``Executor._run_subquery``.
        """
        query = "SELECT COUNT(*) FROM o WHERE o.a IN (SELECT i.x FROM i)"
        for decorrelate in (True, False):
            dialect = self._outer_inner_dialect(executor, decorrelate)
            del subquery_calls[:]
            assert dialect.execute(query) == [{"COUNT(*)": 150}]
            if not decorrelate:
                assert len(subquery_calls) == 300
                continue
            assert subquery_calls == []
            self._assert_inner_scanned_once(dialect, query, "Hash Semi Join", 40)

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    @pytest.mark.parametrize(
        "query, join_type, inner_rows, count",
        [
            (
                "SELECT COUNT(*) FROM o WHERE o.a NOT IN (SELECT i.x FROM i)",
                "Hash Anti Join", 40, 150,
            ),
            (
                "SELECT COUNT(*) FROM o WHERE EXISTS (SELECT i.x FROM i WHERE i.x > 70)",
                "Hash Semi Join", 4, 300,
            ),
            (
                "SELECT COUNT(*) FROM o WHERE NOT EXISTS (SELECT i.x FROM i WHERE i.x > 70)",
                "Hash Anti Join", 4, 0,
            ),
        ],
        ids=["not-in", "exists", "not-exists"],
    )
    def test_other_uncorrelated_shapes_run_the_inner_once_decorrelated(
        self, executor, subquery_calls, query, join_type, inner_rows, count
    ):
        for decorrelate in (True, False):
            dialect = self._outer_inner_dialect(executor, decorrelate)
            del subquery_calls[:]
            assert dialect.execute(query) == [{"COUNT(*)": count}]
            if not decorrelate:
                assert len(subquery_calls) == 300
                continue
            assert subquery_calls == []
            self._assert_inner_scanned_once(dialect, query, join_type, inner_rows)

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    @pytest.mark.parametrize("negated", [False, True], ids=["exists", "not-exists"])
    def test_correlated_exists_runs_per_row_in_both_modes(
        self, executor, subquery_calls, negated
    ):
        """The rewrite leaves a correlated subquery alone: one run per outer row."""
        query = (
            "SELECT COUNT(*) FROM o WHERE " + ("NOT " if negated else "")
            + "EXISTS (SELECT i.x FROM i WHERE i.x = o.a)"
        )
        for decorrelate in (True, False):
            dialect = self._outer_inner_dialect(executor, decorrelate)
            del subquery_calls[:]
            assert dialect.execute(query) == [{"COUNT(*)": 150}]
            assert len(subquery_calls) == 300

    def test_concurrent_service_readers_match_the_direct_twin(self):
        twin = create_dialect("postgresql")
        tpch.load_into(twin, scale=1.0)
        expected = {number: twin.execute(tpch.QUERIES[number]) for number in (11, 22)}
        assert all(expected.values())
        answers = {11: [], 22: []}
        failures = []
        with QueryService(read_dispatch="thread") as service:
            with ServiceClient(service.address) as loader:
                session = loader.open_session("postgresql", tenant="tpch")
                tpch.load_into(ServiceDialect(session), scale=1.0)

            def reader(number):
                try:
                    with ServiceClient(service.address) as client:
                        session = client.open_session("postgresql", tenant="tpch")
                        for _ in range(6):
                            answers[number].append(session.execute(tpch.QUERIES[number]))
                except Exception as exc:  # surfaced below, on the main thread
                    failures.append(exc)

            threads = [threading.Thread(target=reader, args=(number,)) for number in (11, 22)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures
        for number, results in answers.items():
            assert len(results) == 6
            assert all(rows == expected[number] for rows in results), number


class TestInitPlanShaping:
    """PostgreSQL says InitPlan / SubPlan; the converter reads both back."""

    SETUP = (
        "CREATE TABLE t (a INT, b INT)",
        "CREATE TABLE s (x INT, y INT)",
        "INSERT INTO t (a, b) VALUES (1, 10), (2, 20)",
        "INSERT INTO s (x, y) VALUES (1, 10)",
    )
    QUERY = (
        "SELECT a, (SELECT MAX(x) FROM s) AS m FROM t "
        "WHERE b > 1 OR a IN (SELECT x FROM s WHERE s.y = t.b)"
    )

    def _dialect(self, dbms, **options):
        dialect = create_dialect(dbms, **options)
        for statement in self.SETUP:
            dialect.execute(statement)
        return dialect

    def _relationships(self, plan):
        return sorted(
            prop.value
            for node in plan.root.walk()
            for prop in node.properties
            if prop.identifier == "Parent Relationship"
        )

    @pytest.mark.parametrize("analyze", [False, True])
    def test_text_and_json_round_trip_both_labels(self, analyze):
        dialect = self._dialect("postgresql")
        hub = ConverterHub()
        plans = {
            plan_format: hub.convert(
                "postgresql",
                dialect.explain(self.QUERY, format=plan_format, analyze=analyze).text,
                plan_format,
                use_cache=False,
            )
            for plan_format in ("text", "json")
        }
        for plan in plans.values():
            assert self._relationships(plan) == ["InitPlan", "SubPlan"]
        assert structural_fingerprint(plans["text"]) == structural_fingerprint(plans["json"])

    def test_text_labels_each_subquery_plan(self):
        text = self._dialect("postgresql").explain(self.QUERY, format="text").text
        assert "InitPlan 1" in text and "SubPlan 2" in text

    def test_per_row_oracle_emits_subplans_only(self):
        dialect = self._dialect("postgresql", decorrelate=False)
        plan = ConverterHub().convert(
            "postgresql", dialect.explain(self.QUERY, format="json").text, "json"
        )
        assert self._relationships(plan) == ["SubPlan", "SubPlan"]

    @pytest.mark.parametrize("dbms", ["mysql", "tidb", "sqlite", "sqlserver", "sparksql"])
    def test_other_dialects_render_attached_plans_where_they_did(self, dbms):
        # Same text whichever list the filter's plan is in; a select-list
        # subquery stays invisible, as before.
        hub = ConverterHub()
        plan_format = hub.converter(dbms).formats[0]

        def explained(query, **options):
            return self._dialect(dbms, **options).explain(query, format=plan_format).text

        query = "SELECT a FROM t WHERE b > 1 OR a IN (SELECT x FROM s)"
        assert explained(query) == explained(query, decorrelate=False)
        with_subquery = hub.convert(dbms, explained(query), plan_format)
        without = hub.convert(
            dbms, explained("SELECT a FROM t WHERE b > 1 OR a > 5"), plan_format
        )
        assert with_subquery.node_count() > without.node_count()
        in_select_list = hub.convert(
            dbms, explained("SELECT a, (SELECT MAX(x) FROM s) AS m FROM t"), plan_format
        )
        plain = hub.convert(dbms, explained("SELECT a, b AS m FROM t"), plan_format)
        assert in_select_list.node_count() == plain.node_count()
