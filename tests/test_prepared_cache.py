"""The prepared-query cache: hits, version invalidation, and invisibility.

Three properties are asserted:

* **Versioning** — every mutation class (DDL, insert/update/delete,
  ``analyze_tables``) bumps the database's catalog version, so cached plans
  for the old state become unreachable and a schema change is reflected by
  the very next EXPLAIN.
* **Reuse** — repeated statement texts hit the AST cache, repeated texts
  against an unmutated database hit the plan cache, and QPG's
  explain+execute of one query plans it exactly once.
* **Invisibility** — a QPG round with the cache off covers exactly the
  plans it covers with the cache on (whole campaigns: the matrix in
  tests/test_engine_config.py).
"""

import json

from repro.dialects import create_dialect
from repro.dialects.prepared import PreparedQueryCache, normalize_sql
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
from repro.testing.qpg import QPGConfig, QueryPlanGuidance
from repro.pipeline import PlanIngestService
from repro.converters import ConverterHub


class TestCatalogVersion:
    """Every mutating operation advances Database.version."""

    def _versions_around(self, dialect, statement):
        before = dialect.database.version
        dialect.execute(statement)
        return before, dialect.database.version

    def test_create_table_bumps(self):
        dialect = create_dialect("postgresql")
        before, after = self._versions_around(dialect, "CREATE TABLE t (a INT)")
        assert after > before

    def test_insert_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        before, after = self._versions_around(dialect, "INSERT INTO t (a) VALUES (1)")
        assert after > before

    def test_update_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1)")
        before, after = self._versions_around(dialect, "UPDATE t SET a = 2")
        assert after > before

    def test_delete_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1)")
        before, after = self._versions_around(dialect, "DELETE FROM t")
        assert after > before

    def test_create_index_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        before, after = self._versions_around(dialect, "CREATE INDEX i ON t (a)")
        assert after > before

    def test_drop_table_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        before, after = self._versions_around(dialect, "DROP TABLE t")
        assert after > before

    def test_analyze_tables_bumps(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        before = dialect.database.version
        dialect.analyze_tables()
        assert dialect.database.version > before

    def test_empty_update_still_consistent(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        # Updating zero rows changes nothing — bumping is allowed but a
        # cached plan for the unchanged state must still be correct either
        # way; what matters is that results stay right.
        dialect.execute("UPDATE t SET a = 1 WHERE a = 99")
        assert dialect.execute("SELECT * FROM t") == []


class TestNormalization:
    def test_whitespace_insensitive_when_safe(self):
        assert normalize_sql("SELECT  1  FROM   t") == normalize_sql(
            "SELECT 1\nFROM t"
        )

    def test_string_literals_block_collapsing(self):
        left = normalize_sql("SELECT 'a  b'")
        right = normalize_sql("SELECT 'a b'")
        assert left != right

    def test_quoted_identifiers_block_collapsing(self):
        assert normalize_sql('SELECT "a  b" FROM t') == 'SELECT "a  b" FROM t'

    def test_comments_block_collapsing(self):
        text = "SELECT 1 -- c\n, 2"
        assert normalize_sql(text) == text.strip()


class TestPlanReuse:
    def test_repeated_query_hits_both_caches(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1), (2), (3)")
        dialect.analyze_tables()
        dialect.prepared.clear(reset_stats=True)
        for _ in range(5):
            dialect.execute("SELECT * FROM t WHERE a < 3")
        assert dialect.prepared.ast_stats.hits == 4
        assert dialect.prepared.ast_stats.misses == 1
        assert dialect.prepared.plan_stats.hits == 4
        assert dialect.prepared.plan_stats.misses == 1

    def test_whitespace_variants_share_one_ast(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.prepared.clear(reset_stats=True)
        dialect.execute("SELECT * FROM t")
        dialect.execute("SELECT  *  FROM  t")
        assert dialect.prepared.ast_stats.hits == 1

    def test_explain_then_execute_plans_once(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1)")
        dialect.analyze_tables()
        dialect.prepared.clear(reset_stats=True)
        query = "SELECT * FROM t WHERE a = 1"
        dialect.explain(query, format="json")
        dialect.execute(query)
        assert dialect.prepared.plan_stats.misses == 1
        assert dialect.prepared.plan_stats.hits == 1

    def test_mutation_invalidates_cached_plan(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT, b INT)")
        dialect.execute(
            "INSERT INTO t (a, b) VALUES "
            + ", ".join(f"({i}, {i % 5})" for i in range(200))
        )
        dialect.analyze_tables()
        query = "SELECT * FROM t WHERE a = 7"
        before = dialect.explain(query, format="json").text
        # A new index must show up in the very next plan: the catalog
        # version bump makes the cached pre-index plan unreachable.
        dialect.execute("CREATE INDEX t_a ON t (a)")
        dialect.analyze_tables()
        after = dialect.explain(query, format="json").text
        assert "Index" in after
        assert before != after

    def test_stale_results_never_served(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        query = "SELECT * FROM t"
        assert dialect.execute(query) == []
        dialect.execute("INSERT INTO t (a) VALUES (41)")
        assert dialect.execute(query) == [{"t.a": 41}]
        dialect.execute("UPDATE t SET a = 42")
        assert dialect.execute(query) == [{"t.a": 42}]
        dialect.execute("DELETE FROM t")
        assert dialect.execute(query) == []

    def test_multi_statement_scripts_plan_per_version(self):
        dialect = create_dialect("postgresql")
        script = (
            "CREATE TABLE s (a INT); "
            "INSERT INTO s (a) VALUES (1); "
            "SELECT * FROM s; "
            "DROP TABLE s"
        )
        # Executing the identical script twice re-plans each statement at
        # its execution-time catalog version; a stale CREATE/SELECT plan
        # from the first run would make the second run fail or lie.
        for _ in range(2):
            dialect.execute(script)
        assert not dialect.database.has_table("s")

    def test_explain_analyze_loops_do_not_accumulate(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("INSERT INTO t (a) VALUES (1), (2)")
        dialect.analyze_tables()
        query = "SELECT * FROM t"
        loops = []
        for _ in range(3):
            text = dialect.explain(query, format="json", analyze=True).text
            document = json.loads(text)[0]["Plan"]
            loops.append(document["Actual Loops"])
        # The cached physical tree is shared across the three calls; each
        # EXPLAIN ANALYZE must still report exactly one loop.
        assert loops == [1, 1, 1]

    def test_disabled_cache_stores_nothing(self):
        dialect = create_dialect("postgresql", prepared_cache=False)
        dialect.execute("CREATE TABLE t (a INT)")
        for _ in range(3):
            dialect.execute("SELECT * FROM t")
        assert len(dialect.prepared) == 0
        assert dialect.prepared.ast_stats.lookups == 0

    def test_cache_object_standalone(self):
        cache = PreparedQueryCache(ast_size=2, plan_size=2)
        key, statements = cache.parse("SELECT 1")
        assert cache.parse("SELECT 1")[1] is statements
        sentinel = object()
        assert cache.plan(key, 0, 0, lambda: sentinel) is sentinel
        assert cache.plan(key, 0, 0, lambda: object()) is sentinel
        # A different version misses and re-plans.
        other = object()
        assert cache.plan(key, 0, 1, lambda: other) is other


class TestQPGFastPath:
    def test_repeated_plan_text_takes_fast_path(self):
        generator = RandomQueryGenerator(seed=3, config=GeneratorConfig(max_tables=2))
        dialect = create_dialect("postgresql")
        qpg = QueryPlanGuidance(
            dialect,
            generator,
            config=QPGConfig(queries_per_round=60, run_tlp=False),
            ingest_service=PlanIngestService(hub=ConverterHub()),
        )
        qpg.run()
        # Generated campaigns repeat plan shapes; repeats of an identical
        # raw text must resolve through the hub pre-check without building
        # PlanSource objects.
        assert qpg.statistics.fast_path_hits > 0
        assert qpg.statistics.queries_generated == 60

    def test_fast_path_and_slow_path_agree(self):
        generator = RandomQueryGenerator(seed=4, config=GeneratorConfig(max_tables=2))
        dialect = create_dialect("postgresql")
        qpg = QueryPlanGuidance(
            dialect,
            generator,
            config=QPGConfig(run_tlp=False),
            ingest_service=PlanIngestService(hub=ConverterHub()),
        )
        for statement in generator.schema_statements():
            dialect.execute(statement)
        dialect.analyze_tables()
        query = "SELECT * FROM t0"
        first = qpg.observe_plan(query)   # slow path: converts + registers
        second = qpg.observe_plan(query)  # fast path: hub + coverage hit
        assert first is True
        assert second is False
        assert qpg.statistics.fast_path_hits == 1
        assert len(qpg.seen_fingerprints) == 1


class TestCacheInvisibility:
    def test_qpg_round_identical_with_cache_off(self):
        def round_coverage(enabled):
            generator = RandomQueryGenerator(
                seed=7, config=GeneratorConfig(max_tables=2)
            )
            dialect = create_dialect("postgresql", prepared_cache=enabled)
            qpg = QueryPlanGuidance(
                dialect,
                generator,
                config=QPGConfig(queries_per_round=80),
                ingest_service=PlanIngestService(hub=ConverterHub()),
            )
            statistics = qpg.run()
            return qpg.seen_fingerprints, statistics.mutations_applied

        on_cov, on_mutations = round_coverage(True)
        off_cov, off_mutations = round_coverage(False)
        assert on_cov == off_cov
        assert on_mutations == off_mutations
