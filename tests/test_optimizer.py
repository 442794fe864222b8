"""The cost-based multi-join optimizer and its as-written oracle.

PR 8 gives the planner a real optimization phase: WHERE conjuncts sink
below joins to their minimal scope, multi-way inner joins are reordered by
a DP/memo enumeration over the cost model, and every operator carries a
statically proven intermediate-size bound (Chen & Schneider, arXiv
2412.13104) that caps estimates, prunes the memo, and doubles as an
EXPLAIN ANALYZE oracle.  ``optimize_joins=False`` keeps the as-written
syntactic plan; the two settings must agree on every result row while
being free to disagree on plan shape — exactly the ``decorrelate=False``
contract.  This file pins:

* pushdown plan shapes (including preserved-side pushdown under outer
  joins and the never-below-the-null-extended-side safety rule),
* the join-condition orientation contract (a DP-built ``(B ⋈ A)`` must
  re-orient ``a.x = b.x``, or both executors silently match nothing),
* the bound algebra, runtime violation judging, and the Bound campaign
  oracle (silent on correct engines, loud under injected faults),
* toggle hygiene: ``reconfigure(optimize_joins=...)`` drops the
  prepared-query cache.  That the toggle never changes the row multiset is
  fuzzed by the statement matrix (tests/test_statement_matrix.py), and
  tests/test_engine_config.py checks the campaign.
"""

import json

import pytest

from repro.dialects import create_dialect
from repro.dialects.prepared import reset_runtime
from repro.optimizer import bounds
from repro.optimizer.physical import JOIN_KINDS, OpKind, PhysicalNode, make_node
from repro.sqlparser.parser import parse_sql
from repro.testing import SizeBoundChecker
from repro.testing.bugs import FaultyDialect, KnownBug, bugs_for
from repro.testing.campaign import TestingCampaign
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
from statement_matrix import Matrix, cells


def _plan(dialect, query):
    return dialect.planner.plan_statement(parse_sql(query)[0])


def _scan_by_alias(plan, alias):
    for node in plan.walk():
        if node.kind is OpKind.SEQ_SCAN and node.info.get("alias") == alias:
            return node
    raise AssertionError(f"no SeqScan for alias {alias!r} in\n{plan.describe()}")


def _chain_setup(tables, rows):
    statements = []
    for table in range(1, tables + 1):
        values = ", ".join(f"({value}, {value * table})" for value in range(rows))
        statements += [f"CREATE TABLE t{table} (k INT, v INT)",
                       f"INSERT INTO t{table} (k, v) VALUES {values}"]
    return statements


def _chain_dialect(tables=3, rows=5, optimize_joins=True, executor="vectorized"):
    dialect = create_dialect("postgresql", optimize_joins=optimize_joins, executor=executor)
    for statement in _chain_setup(tables, rows):
        dialect.execute(statement)
    dialect.analyze_tables()
    return dialect


class TestPredicatePushdown:
    """WHERE conjuncts sink to their minimal safe scope."""

    SETUP = (
        "CREATE TABLE t (a INT, b INT)",
        "CREATE TABLE s (x INT, y INT)",
        "INSERT INTO t (a, b) VALUES (1, 10), (2, 20), (3, 30)",
        "INSERT INTO s (x, y) VALUES (1, 100), (3, 300)",
    )

    def _dialect(self, optimize_joins=True):
        dialect = create_dialect("postgresql", optimize_joins=optimize_joins)
        for statement in self.SETUP:
            dialect.execute(statement)
        dialect.analyze_tables()
        return dialect

    def test_single_alias_conjunct_reaches_the_scan(self):
        dialect = self._dialect()
        plan = _plan(dialect, "SELECT t.a FROM t, s WHERE t.a = s.x AND t.b > 15")
        assert _scan_by_alias(plan, "t").info.get("filter") is not None
        assert _scan_by_alias(plan, "s").info.get("filter") is None
        # The equi-conjunct became the join condition; nothing is left for
        # a residual filter above the join.
        assert not plan.find(OpKind.FILTER)

    def test_as_written_keeps_every_conjunct_above_the_joins(self):
        dialect = self._dialect(optimize_joins=False)
        plan = _plan(dialect, "SELECT t.a FROM t, s WHERE t.a = s.x AND t.b > 15")
        assert _scan_by_alias(plan, "t").info.get("filter") is None
        assert _scan_by_alias(plan, "s").info.get("filter") is None
        filters = plan.find(OpKind.FILTER)
        assert filters, "as-written plan must filter above the join"
        joins = [node for node in plan.walk() if node.kind in JOIN_KINDS]
        assert joins, "as-written plan still joins, just in written order"

    def test_preserved_side_pushdown_under_left_join(self):
        dialect = self._dialect()
        plan = _plan(
            dialect,
            "SELECT t.a FROM t LEFT JOIN s ON t.a = s.x WHERE t.b > 15",
        )
        # t is the preserved side: its conjunct may sink below the join.
        assert _scan_by_alias(plan, "t").info.get("filter") is not None

    def test_no_pushdown_below_the_null_extended_side(self):
        dialect = self._dialect()
        plan = _plan(
            dialect,
            "SELECT t.a FROM t LEFT JOIN s ON t.a = s.x WHERE s.y = 100",
        )
        # Filtering s below the join would turn unmatched-NULL rows into
        # matches-then-filtered rows; the conjunct must stay above.
        assert _scan_by_alias(plan, "s").info.get("filter") is None
        assert plan.find(OpKind.FILTER)

    @pytest.mark.parametrize("optimize_joins", [True, False])
    def test_outer_join_where_equality_not_dropped(self, optimize_joins):
        """Regression: a WHERE conjunct over both outer-join sides must apply."""
        dialect = self._dialect(optimize_joins)
        rows = dialect.execute(
            "SELECT t.a, s.y FROM t LEFT JOIN s ON t.a < 100 WHERE t.a = s.x"
        )
        assert rows == [{"t.a": 1, "s.y": 100}, {"t.a": 3, "s.y": 300}]

    @pytest.mark.parametrize("optimize_joins", [True, False])
    def test_pushdown_preserves_results(self, optimize_joins):
        dialect = self._dialect(optimize_joins)
        rows = dialect.execute(
            "SELECT t.a, s.y FROM t, s WHERE t.a = s.x AND t.b > 15 ORDER BY t.a"
        )
        assert rows == [{"t.a": 3, "s.y": 300}]


class TestJoinOrdering:
    """DP reordering is deterministic, correct, and orientation-safe."""

    CHAIN_QUERY = (
        "SELECT COUNT(*) FROM t1, t3, t2 WHERE t1.k = t2.k AND t2.k = t3.k"
    )

    @pytest.mark.parametrize("optimize_joins", [True, False])
    @pytest.mark.parametrize("executor", ["row", "vectorized", "parallel"])
    def test_condition_orientation_across_executors(self, executor, optimize_joins):
        """Regression: DP may build (B join A) from an edge written a.x = b.x.

        Both executors resolve an ``=`` conjunct's left reference against
        the left child, so a misoriented condition silently matches zero
        rows.  The planner re-orients per-conjunct; every executor and both
        toggles must agree on the count.
        """
        dialect = _chain_dialect(
            tables=3, rows=5, optimize_joins=optimize_joins, executor=executor
        )
        rows = dialect.execute(self.CHAIN_QUERY)
        assert rows[0]["COUNT(*)"] == 5

    def test_reordered_plan_avoids_the_written_cartesian(self):
        optimized = _plan(_chain_dialect(), self.CHAIN_QUERY)
        as_written = _plan(_chain_dialect(optimize_joins=False), self.CHAIN_QUERY)
        joins = [node for node in optimized.walk() if node.kind in JOIN_KINDS]
        assert all(node.info.get("condition") is not None for node in joins)
        # As written, t1 x t3 share no predicate: the first join is a pure
        # Cartesian product with the conjuncts filtered on top.
        syntactic_joins = [n for n in as_written.walk() if n.kind in JOIN_KINDS]
        assert any(n.info.get("condition") is None for n in syntactic_joins)

    def test_dp_is_deterministic(self):
        shapes = set()
        for _ in range(3):
            plan = _plan(_chain_dialect(), self.CHAIN_QUERY)
            shapes.add(plan.describe())
        assert len(shapes) == 1

    def test_prune_never_changes_the_chosen_plan(self, monkeypatch):
        """The cost prune is a pure speedup: disabling it picks the same plan."""
        from repro.optimizer.planner import Planner

        pruned = _plan(_chain_dialect(), self.CHAIN_QUERY)
        monkeypatch.setattr(
            Planner, "_prune_split", lambda self, left, right, best: False
        )
        exhaustive = _plan(_chain_dialect(), self.CHAIN_QUERY)
        assert pruned.describe() == exhaustive.describe()

    def test_five_table_chain_identical_results_across_toggles(self):
        query = (
            "SELECT t1.v, t5.v FROM t1, t3, t5, t2, t4"
            " WHERE t1.k = t2.k AND t2.k = t3.k AND t3.k = t4.k AND t4.k = t5.k"
            " ORDER BY t1.v"
        )
        results = {}
        for optimize_joins in (True, False):
            dialect = _chain_dialect(tables=5, rows=4, optimize_joins=optimize_joins)
            results[optimize_joins] = dialect.execute(query)
        assert results[True] == results[False]
        assert len(results[True]) == 4

    def test_reordered_five_table_chain_never_forms_the_written_product(self):
        """Why the reordered chain is fast, counted rather than timed.

        No two adjacent FROM items share a predicate, so as written five
        10-row tables multiply to 10**5 rows below the one filter; the DP
        order joins along the chain and no join emits more than 10.
        """
        query = (
            "SELECT COUNT(*) FROM t1, t3, t5, t2, t4"
            " WHERE t1.k = t2.k AND t2.k = t3.k AND t3.k = t4.k AND t4.k = t5.k"
        )
        join_rows = {}
        for optimize_joins in (True, False):
            dialect = _chain_dialect(tables=5, rows=10, optimize_joins=optimize_joins)
            document = json.loads(dialect.explain(query, format="json", analyze=True).text)
            stack, rows = [document[0]["Plan"]], []
            while stack:
                node = stack.pop()
                if node["Node Type"] in ("Hash Join", "Nested Loop", "Merge Join"):
                    rows.append(node["Actual Rows"])
                stack.extend(node.get("Plans", ()))
            join_rows[optimize_joins] = rows
            assert dialect.execute(query) == [{"COUNT(*)": 10}]
        assert len(join_rows[True]) == 4 and max(join_rows[True]) <= 10
        assert max(join_rows[False]) == 10 ** 5


class TestBoundAlgebra:
    """Unit coverage for the Chen & Schneider size-bound algebra."""

    def test_inner_join_bound_is_the_product(self):
        assert bounds.join_bound(10.0, 20.0) == 200.0

    def test_unique_side_caps_to_the_other_input(self):
        assert bounds.join_bound(10.0, 20.0, right_unique=True) == 10.0
        assert bounds.join_bound(10.0, 20.0, left_unique=True) == 20.0

    def test_left_join_adds_null_padding(self):
        assert bounds.join_bound(10.0, 20.0, "LEFT") == 210.0
        # A unique right side means at most one row per left row, padded or not.
        assert bounds.join_bound(10.0, 20.0, "LEFT", right_unique=True) == 10.0

    def test_full_join_pads_both_sides(self):
        assert bounds.join_bound(10.0, 20.0, "FULL") == 230.0
        assert bounds.join_bound(10.0, 20.0, "FULL", right_unique=True) == 30.0

    def test_unknown_join_type_makes_no_claim(self):
        assert bounds.join_bound(10.0, 20.0, "LATERAL") == float("inf")

    def test_row_preserving_operators_pass_the_bound_through(self):
        for kind in (OpKind.FILTER, OpKind.PROJECT, OpKind.SORT, OpKind.DISTINCT):
            assert bounds.propagated_bound(kind, [42.0]) == 42.0

    def test_global_aggregate_still_emits_its_summary_row(self):
        assert bounds.propagated_bound(OpKind.HASH_AGGREGATE, [0.0]) == 1.0
        assert bounds.propagated_bound(OpKind.HASH_AGGREGATE, [9.0]) == 9.0

    def test_limit_bounds_on_its_own(self):
        assert bounds.propagated_bound(OpKind.LIMIT, [None], limit=3.0) == 3.0
        assert bounds.propagated_bound(OpKind.LIMIT, [10.0], limit=3.0) == 3.0

    def test_missing_child_bound_poisons_most_operators(self):
        assert bounds.propagated_bound(OpKind.FILTER, [None]) is None
        assert bounds.propagated_bound(OpKind.UNION, [5.0, None]) is None
        # EXCEPT never exceeds its left input, even blind on the right.
        assert bounds.propagated_bound(OpKind.EXCEPT, [5.0, None]) == 5.0

    def test_set_operations_combine_bounds(self):
        assert bounds.propagated_bound(OpKind.UNION, [5.0, 7.0]) == 12.0
        assert bounds.propagated_bound(OpKind.INTERSECT, [5.0, 7.0]) == 5.0


class TestBoundViolations:
    """Runtime judging: actual rows beyond a proven bound, once-executed only."""

    def _node(self, bound, actual, loops=1, executed=True):
        node = make_node(OpKind.SEQ_SCAN, table="t")
        if bound is not None:
            node.info["size_bound"] = bound
        node.runtime.actual_rows = actual
        node.runtime.loops = loops
        node.runtime.executed = executed
        return node

    def test_exceeding_the_bound_is_flagged(self):
        violations = bounds.bound_violations(self._node(5.0, 7))
        assert violations == [
            {"operator": "SeqScan", "size_bound": 5.0, "actual_rows": 7}
        ]

    def test_within_bound_unbounded_and_rescanned_nodes_stay_silent(self):
        assert not bounds.bound_violations(self._node(5.0, 5))
        assert not bounds.bound_violations(self._node(None, 7))
        assert not bounds.bound_violations(self._node(5.0, 7, loops=3))
        assert not bounds.bound_violations(self._node(5.0, 7, executed=False))

    def test_planned_chain_join_carries_bounds_that_hold(self):
        dialect = _chain_dialect(tables=3, rows=5)
        query = TestJoinOrdering.CHAIN_QUERY
        plan = _plan(dialect, query)
        scans = plan.find(OpKind.SEQ_SCAN)
        assert all(node.info.get("size_bound") == 5.0 for node in scans)
        joins = [node for node in plan.walk() if node.kind in JOIN_KINDS]
        assert all(node.info.get("size_bound") is not None for node in joins)
        # Estimates are capped at the proven maximum everywhere a bound exists.
        for node in plan.walk():
            bound = node.info.get("size_bound")
            if bound is not None:
                assert node.estimated_rows <= bound
        dialect.executor.execute(reset_runtime(plan), analyze=True)
        assert bounds.bound_violations(plan) == []

    def test_explain_analyze_reports_no_violations_on_a_correct_engine(self):
        dialect = _chain_dialect(tables=3, rows=5)
        output = dialect.explain(TestJoinOrdering.CHAIN_QUERY, analyze=True)
        assert not output.bound_violations


_BOUND_BUG = KnownBug("postgresql", "Bound", "B-0001", "Injected", "Major", "bound")


class TestBoundOracle:
    """The campaign-facing checker: silent by default, loud under faults."""

    def _generator(self):
        return RandomQueryGenerator(seed=11, config=GeneratorConfig(max_tables=2))

    def test_checker_is_silent_on_a_correct_engine(self):
        dialect = create_dialect("postgresql")
        checker = SizeBoundChecker(dialect, self._generator())
        statistics = checker.run(queries=40)
        assert statistics.queries_checked == 40
        assert statistics.violations == []

    def test_checker_flags_injected_bound_faults(self):
        faulty = FaultyDialect(
            create_dialect("postgresql"), bound_bugs=[_BOUND_BUG]
        )
        checker = SizeBoundChecker(faulty, self._generator())
        statistics = checker.run(queries=80)
        assert statistics.violations, "injected bound faults went unnoticed"
        for violation in statistics.violations:
            assert violation.actual_rows > violation.size_bound
            assert violation.dbms == "postgresql"

    def test_default_campaign_reports_no_bound_bugs(self):
        campaign = TestingCampaign(
            dbms_names=["postgresql"],
            queries_per_dbms=5,
            cert_pairs_per_dbms=2,
            bound_checks_per_dbms=15,
        )
        result = campaign.run()
        assert result.bound_queries_checked == 15
        assert not [r for r in result.reports if r.found_by == "Bound"]

    def test_campaign_surfaces_injected_bound_bugs(self, monkeypatch):
        import repro.testing.campaign as campaign_module

        real_bugs_for = campaign_module.bugs_for

        def with_bound_bugs(dbms, kind=None):
            if kind == "bound":
                return [_BOUND_BUG]
            return real_bugs_for(dbms, kind)

        monkeypatch.setattr(campaign_module, "bugs_for", with_bound_bugs)
        campaign = TestingCampaign(
            dbms_names=["postgresql"],
            queries_per_dbms=5,
            cert_pairs_per_dbms=2,
            bound_checks_per_dbms=80,
        )
        result = campaign.run()
        bound_reports = [r for r in result.reports if r.found_by == "Bound"]
        assert bound_reports, "bound faults must become campaign reports"
        for report in bound_reports:
            assert report.bug_id == _BOUND_BUG.bug_id
            assert report.trigger_query


class TestToggleHygiene:
    """optimize_joins is pure plan policy: results and Table V never move."""

    def test_reconfigure_optimize_joins_clears_cached_plans(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("CREATE TABLE s (x INT)")
        query = "SELECT COUNT(*) FROM t, s WHERE t.a = s.x"
        dialect.execute(query)
        dialect.reconfigure(optimize_joins=False)
        plan = _plan(dialect, query)
        assert plan.find(OpKind.FILTER), "as-written plan filters above the join"
        # The cached optimized plan must not be served after the switch.
        text_key, statements = dialect.prepared.parse(query)
        cached = dialect.prepared.plan(
            text_key,
            0,
            dialect.database.version,
            lambda: dialect.planner.plan_statement(statements[0]),
        )
        assert cached.find(OpKind.FILTER)

    def test_toggle_is_idempotent_for_the_cache(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        query = "SELECT a FROM t"
        dialect.execute(query)
        before = len(dialect.prepared)
        assert before > 0
        dialect.reconfigure(optimize_joins=True)  # already True: must not clear
        assert len(dialect.prepared) == before

    def test_analyze_counts_agree_between_executors_per_setting(self):
        matrix = Matrix(cells(*(
            (executor, True, True, optimize_joins, True)
            for optimize_joins in (True, False) for executor in ("row", "vectorized")
        )), _chain_setup(3, 5))
        matrix.analyze()
        matrix.check(TestJoinOrdering.CHAIN_QUERY, plan=True)
