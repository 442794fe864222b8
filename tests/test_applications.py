"""Tests for the three applications: testing (A.1), visualization (A.2), benchmarking (A.3)."""

import pytest

from repro.benchmarking import (
    analyse_query11,
    collect_nosql_plans,
    collect_tpch_plans,
    figure4_variances,
    high_variance_queries,
    scan_count_comparison,
    table6_rows,
    table7_rows,
    tpch,
    unified_text,
)
from repro.core import OperationCategory
from repro.dialects import create_dialect
from repro.sqlparser import ast, parse_one
from repro.testing import (
    CardinalityRestrictionTester,
    FaultyDialect,
    KNOWN_BUGS,
    QueryPlanGuidance,
    QPGConfig,
    RandomQueryGenerator,
    TestingCampaign,
    bugs_for,
    check_tlp,
)
from repro.visualize import estimate_effort, render_ascii, render_dot, render_html


# ---------------------------------------------------------------------------
# A.1 Testing
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_schema_statements_parse(self):
        generator = RandomQueryGenerator(seed=3)
        for statement in generator.schema_statements():
            parse_one(statement)

    def test_queries_parse(self):
        generator = RandomQueryGenerator(seed=4)
        generator.schema_statements()
        for _ in range(30):
            parse_one(generator.select_query())

    def test_mutations_parse(self):
        generator = RandomQueryGenerator(seed=5)
        generator.schema_statements()
        for _ in range(20):
            parse_one(generator.mutation_statement())

    def test_restricted_query_is_more_restrictive(self):
        generator = RandomQueryGenerator(seed=6)
        generator.schema_statements()
        query = generator.select_query()
        restricted = generator.restricted_query(query, generator.tables[0])
        assert "WHERE" in restricted.upper()
        assert len(restricted) > len(query)

    def test_determinism(self):
        first = RandomQueryGenerator(seed=9)
        second = RandomQueryGenerator(seed=9)
        first.schema_statements()
        second.schema_statements()
        assert [first.select_query() for _ in range(5)] == [
            second.select_query() for _ in range(5)
        ]


class TestTLP:
    def _dialect(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t0 (c0 INT, c1 INT)")
        dialect.execute(
            "INSERT INTO t0 (c0, c1) VALUES "
            + ", ".join(f"({i}, {i % 3})" for i in range(1, 41))
            + ", (NULL, NULL)"
        )
        dialect.analyze_tables()
        return dialect

    def test_correct_dialect_passes(self):
        dialect = self._dialect()
        predicate = parse_one("SELECT * FROM t0 WHERE c0 < 20").body.where
        result = check_tlp(dialect, "t0", predicate)
        assert result.passed, result.message

    def test_faulty_dialect_detected(self):
        dialect = FaultyDialect(
            self._dialect(), logic_bugs=bugs_for("mysql", "logic"), trigger_rate=1
        )
        predicate = parse_one("SELECT * FROM t0 WHERE c0 < 20").body.where
        result = check_tlp(dialect, "t0", predicate)
        assert not result.passed

    def test_partition_queries_cover_three_cases(self):
        predicate = parse_one("SELECT * FROM t0 WHERE c0 < 20").body.where
        queries = check_tlp.__wrapped__ if hasattr(check_tlp, "__wrapped__") else None
        from repro.testing import partition_queries

        first, second, third = partition_queries("t0", predicate)
        assert "NOT" in second and "IS NULL" in third

    def test_row_keys_ignore_column_order_but_keep_value_types(self):
        from repro.testing.tlp import _row_key

        assert _row_key({"b": 2, "a": 1}) == _row_key({"a": 1, "b": 2})
        keys = {_row_key({"a": value}) for value in (1, 1.0, True, "1", None)}
        assert len(keys) == 5


class TestQPGAndCERT:
    def test_qpg_discovers_plans_and_mutates(self):
        dialect = create_dialect("postgresql")
        generator = RandomQueryGenerator(seed=11)
        qpg = QueryPlanGuidance(
            dialect, generator, config=QPGConfig(queries_per_round=40, stagnation_threshold=5, run_tlp=False)
        )
        statistics = qpg.run()
        assert statistics.queries_generated == 40
        assert statistics.unique_plans >= 3
        assert statistics.mutations_applied >= 1

    def test_qpg_fingerprints_ignore_tidb_identifiers(self):
        dialect = create_dialect("tidb")
        generator = RandomQueryGenerator(seed=12)
        qpg = QueryPlanGuidance(
            dialect, generator, config=QPGConfig(queries_per_round=10, run_tlp=False)
        )
        qpg.run()
        query = "SELECT * FROM t0"
        assert qpg.observe_plan(query) in (True, False)
        # Re-observing the same query must not be "new" despite fresh operator ids.
        assert qpg.observe_plan(query) is False

    def test_cert_clean_dialect_has_no_violations(self):
        dialect = create_dialect("postgresql")
        generator = RandomQueryGenerator(seed=13)
        cert = CardinalityRestrictionTester(dialect, generator)
        statistics = cert.run(pairs=25)
        assert statistics.pairs_checked == 25
        assert statistics.violations == []

    def test_cert_detects_injected_monotonicity_bug(self):
        dialect = FaultyDialect(
            create_dialect("tidb"),
            performance_bugs=bugs_for("tidb", "performance"),
            trigger_rate=1,
        )
        generator = RandomQueryGenerator(seed=14)
        cert = CardinalityRestrictionTester(dialect, generator)
        statistics = cert.run(pairs=30)
        assert statistics.violations
        assert all(v.ratio > 1.0 for v in statistics.violations)


class TestCampaign:
    def test_table5_reproduced(self):
        campaign = TestingCampaign(queries_per_dbms=60, cert_pairs_per_dbms=30)
        result = campaign.run()
        assert len(result.reports) == len(KNOWN_BUGS) == 17
        assert result.by_dbms() == {"mysql": 7, "postgresql": 1, "tidb": 9}
        found_by = {(report.dbms, report.found_by) for report in result.reports}
        assert ("mysql", "QPG") in found_by
        assert ("postgresql", "CERT") in found_by
        assert ("tidb", "CERT") in found_by

    def test_severities_match_paper(self):
        campaign = TestingCampaign(queries_per_dbms=60, cert_pairs_per_dbms=30)
        rows = campaign.run().table5_rows()
        severities = [row["Severity"] for row in rows]
        assert severities.count("Critical") == 3
        assert severities.count("Serious") == 3
        assert severities.count("Major") == 5


# ---------------------------------------------------------------------------
# A.2 Visualization
# ---------------------------------------------------------------------------


class TestVisualization:
    def _plan(self, dbms="postgresql"):
        from repro.converters import converter_for

        dialect = create_dialect(dbms)
        dialect.execute("CREATE TABLE t0 (c0 INT)")
        dialect.execute("INSERT INTO t0 (c0) VALUES (1), (2), (3)")
        dialect.analyze_tables()
        converter = converter_for(dbms)
        output = dialect.explain("SELECT c0, COUNT(*) FROM t0 GROUP BY c0", format=converter.formats[0])
        return converter.convert(output.text, format=converter.formats[0])

    def test_ascii_render(self):
        text = render_ascii(self._plan(), with_properties=True)
        assert "Full Table Scan" in text or "Aggregate" in text

    def test_dot_render(self):
        dot = render_dot(self._plan())
        assert dot.startswith("digraph") and "->" in dot

    def test_html_render(self):
        page = render_html(self._plan(), title="TPC-H Q1")
        assert "<html>" in page and "Full Table Scan" in page

    def test_same_renderer_for_multiple_dbms(self):
        for dbms in ("postgresql", "mysql", "tidb"):
            assert render_dot(self._plan(dbms)).startswith("digraph")

    def test_effort_model_matches_paper(self):
        effort = estimate_effort(dbms_count=5)
        assert effort.dbms_specific_days == pytest.approx(940)
        assert effort.uplan_days == pytest.approx(194, abs=1)
        assert 0.75 <= effort.reduction_fraction <= 0.85

    def test_effort_grows_with_dbms_count(self):
        assert estimate_effort(10).reduction_fraction > estimate_effort(5).reduction_fraction


# ---------------------------------------------------------------------------
# A.3 Benchmarking
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_plans():
    return collect_tpch_plans(scale=0.2)


class TestTPCH:
    def test_all_22_queries_parse(self):
        for query in tpch.QUERIES.values():
            parse_one(query)

    def test_data_generator_row_counts(self):
        data = tpch.generate_data(scale=0.5)
        assert set(data) == set(tpch.TPCH_TABLES)
        assert len(data["nation"]) == 25
        assert len(data["lineitem"]) > len(data["orders"])

    def test_queries_execute_on_postgresql(self):
        dialect = create_dialect("postgresql")
        tpch.load_into(dialect, scale=0.2)
        for number in (1, 3, 6, 11, 13):
            rows = dialect.execute(tpch.QUERIES[number])
            assert isinstance(rows, list)

    def test_collect_plans_covers_five_dbms(self, tpch_plans):
        assert set(tpch_plans) == {"mongodb", "mysql", "neo4j", "postgresql", "tidb"}
        assert len(tpch_plans["postgresql"].plans) == 22
        assert len(tpch_plans["mongodb"].plans) == 3
        assert len(tpch_plans["neo4j"].plans) == 18

    def test_table6_shape(self, tpch_plans):
        rows = {row["DBMS"]: row for row in table6_rows(tpch_plans)}
        # Relational DBMSs expose more operations than the non-relational ones,
        # TiDB the most (reader/projection wrapping), as in Table VI.
        assert rows["tidb"]["Sum"] > rows["postgresql"]["Sum"] >= rows["mysql"]["Sum"] - 1
        assert rows["mysql"]["Sum"] > rows["mongodb"]["Sum"]
        assert rows["postgresql"]["Sum"] > rows["neo4j"]["Sum"]
        assert rows["mongodb"]["Join"] == 0.0

    def test_figure4_variance(self, tpch_plans):
        variances = figure4_variances(tpch_plans)
        assert len(variances) == 22
        high = high_variance_queries(variances, threshold=2.0)
        assert 2 in high or 5 in high or 9 in high
        assert 11 in high or variances[11] > 0

    def test_table7_nosql(self):
        plans = collect_nosql_plans(scale=0.3)
        rows = {row["DBMS"]: row for row in table7_rows(plans)}
        assert rows["mongodb"]["Join"] == 0.0
        assert rows["neo4j"]["Join"] > 0.0
        # YCSB plans are simpler than TPC-H plans for MongoDB (Table VII).
        assert rows["mongodb"]["Sum"] <= 4.0


class TestQuery11Analysis:
    def test_listing4_analysis(self):
        analysis = analyse_query11(scale=1.0)
        comparison = scan_count_comparison(analysis)
        assert comparison["postgresql"] == 6  # six table scans, as in the paper
        assert analysis.tidb_producer_count >= 3
        assert 0.05 <= analysis.potential_saving_fraction <= 0.6
        assert len(analysis.scan_timings) >= 3

    def test_unified_text_rendering(self):
        analysis = analyse_query11(scale=1.0)
        text = unified_text(analysis.postgresql_plan)
        assert "Producer->Full Table Scan" in text
        assert "partsupp" in text
