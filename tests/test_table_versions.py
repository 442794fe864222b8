"""A write invalidates only what it touched.

Cached plans are keyed on the catalog epoch plus the planning versions of
the tables a statement names; columnar snapshots on the heap's own data
version.  Three properties are asserted, by exact counts and object
identity (no timings):

* **Narrow** — a write to table A leaves B's snapshot the *same object* and
  a B-only statement a plan-cache hit, and makes every statement that names
  A anywhere (join, subquery, derived table, set-operation arm, DML source)
  a miss.
* **Sound** — DDL and whole-database ``analyze`` miss everything; drop +
  recreate never resurrects a plan or a snapshot; a heap mutation that
  bypasses the ``Database`` still yields a fresh snapshot; a statement that
  fails half-way still invalidates.
* **Invisible** — random interleavings of writes, ``analyze``, DDL, reads
  and EXPLAIN run in lockstep (tests/statement_matrix.py) on the row, list
  and numpy engines, each with the cache on and off, agree on rows, row
  order, rejections and their messages and EXPLAIN text after every step.
"""

import random

import pytest

from repro.dialects import create_dialect
from repro.service import QueryService, ServiceClient, TenantRegistry
from repro.dialects.prepared import ParsedScript
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.parser import parse_script
from repro.testing.generator import RandomQueryGenerator
from statement_matrix import Matrix, attempt, cells, kernel_cells, observe_rows


def _dialect(**options):
    """Tables a (keyed), b and c with a few rows each, analyzed."""
    dialect = create_dialect("postgresql", **options)
    dialect.execute("CREATE TABLE a (k INT PRIMARY KEY, v INT)")
    dialect.execute("CREATE TABLE b (k INT, v INT)")
    dialect.execute("CREATE TABLE c (k INT, v INT)")
    for name in "abc":
        dialect.execute(
            f"INSERT INTO {name} VALUES " + ", ".join(f"({i}, {i % 4})" for i in range(12))
        )
    return dialect


def _outcome(dialect, text):
    """``(plan hits, plan misses, planner calls)`` moved by executing *text*."""
    planned = []
    original = dialect.planner.plan_statement
    dialect.planner.plan_statement = lambda statement: planned.append(statement) or original(statement)
    before = dialect.prepared.plan_stats.snapshot()
    try:
        dialect.execute(text)
    finally:
        del dialect.planner.plan_statement
    after = dialect.prepared.plan_stats
    return after.hits - before.hits, after.misses - before.misses, len(planned)


HIT = (1, 0, 0)
MISS = (0, 1, 1)

B_ONLY = "SELECT k, v FROM b WHERE v = 1 ORDER BY k"

#: Statements that name table ``a`` somewhere other than a plain FROM.
NAMING_A = {
    "join": "SELECT b.k FROM b JOIN a ON a.k = b.k ORDER BY b.k",
    "in": "SELECT k FROM b WHERE k IN (SELECT k FROM a WHERE v = 1) ORDER BY k",
    "exists": "SELECT k FROM b WHERE EXISTS (SELECT 1 FROM a WHERE a.k = b.k) ORDER BY k",
    "scalar": "SELECT k FROM b WHERE v < (SELECT MAX(v) FROM a) ORDER BY k",
    "select-list": "SELECT k, (SELECT COUNT(*) FROM a) AS n FROM b ORDER BY k",
    "derived": "SELECT d.k FROM (SELECT k FROM a WHERE v = 2) AS d ORDER BY d.k",
    "set-arm": "SELECT k FROM b WHERE v = 0 UNION SELECT k FROM a WHERE v = 3",
    "nested": "SELECT k FROM b WHERE k IN (SELECT k FROM c WHERE v IN (SELECT v FROM a))",
}


def _tables_by_walk(statement):
    """The structural oracle for the parser's table tracking: every
    ``TableRef`` under every field of every node, plus DML / ``CREATE
    INDEX`` targets."""
    names = set()
    stack = [statement]
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Node):
            if isinstance(item, ast.TableRef):
                names.add(item.name.lower())
            elif isinstance(item, (ast.Insert, ast.Update, ast.Delete, ast.CreateIndex)):
                names.add(item.table.lower())
            stack.extend(vars(item).values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return tuple(sorted(names))


class TestStatementTables:
    @pytest.mark.parametrize("text, expected", [
        (B_ONLY, ("b",)),
        ("SELECT 1", ()),
        ("SELECT * FROM B AS x, b AS y", ("b",)),
        ("EXPLAIN SELECT k FROM b WHERE k IN (SELECT k FROM a)", ("a", "b")),
        ("INSERT INTO c SELECT k, v FROM a WHERE v = 1", ("a", "c")),
        ("INSERT INTO c VALUES (1, (SELECT MAX(v) FROM a))", ("a", "c")),
        ("UPDATE c SET v = (SELECT MIN(v) FROM b) WHERE k IN (SELECT k FROM a)", ("a", "b", "c")),
        ("DELETE FROM c WHERE EXISTS (SELECT 1 FROM a WHERE a.k = c.k)", ("a", "c")),
        ("CREATE INDEX i ON c (k)", ("c",)),
        ("CREATE TABLE c (k INT)", ()),
        ("DROP TABLE c", ()),
        ("SELECT COUNT(*) FROM b GROUP BY v HAVING COUNT(*) > (SELECT COUNT(*) FROM a)", ("a", "b")),
        ("SELECT k FROM b ORDER BY (SELECT MAX(v) FROM a), k LIMIT 3", ("a", "b")),
        ("SELECT CASE WHEN v IN (SELECT v FROM a) THEN 1 ELSE 0 END FROM b", ("a", "b")),
        ("SELECT b.k FROM b LEFT JOIN c ON c.k = (SELECT MIN(k) FROM a)", ("a", "b", "c")),
        (NAMING_A["derived"], ("a",)),
        (NAMING_A["set-arm"], ("a", "b")),
        (NAMING_A["nested"], ("a", "b", "c")),
    ])
    def test_every_named_table_is_found(self, text, expected):
        statements, tables = parse_script(text)
        assert tables == [expected] == [_tables_by_walk(statements[0])]

    def test_each_statement_of_a_script_gets_its_own_set(self):
        _, tables = parse_script("INSERT INTO a VALUES (1, 1); SELECT 1; SELECT k FROM b; DELETE FROM c")
        assert tables == [("a",), (), ("b",), ("c",)]

    def test_parser_agrees_with_the_structural_walk_on_the_generator_corpus(self):
        checked = 0
        for seed in (1, 2, 3):
            generator = RandomQueryGenerator(seed=seed)
            texts = list(generator.schema_statements())
            for _ in range(150):
                texts.append(generator.select_query())
                texts.append(generator.mutation_statement())
            for text in texts:
                try:
                    statements, tables = parse_script(text)
                except Exception:  # noqa: BLE001 - the corpus includes rejects
                    continue
                assert tables == [_tables_by_walk(s) for s in statements], text
                checked += len(statements)
        assert checked > 600

    def test_kept_beside_the_cached_ast_and_absent_with_the_cache_off(self):
        script = "INSERT INTO a VALUES (100, 1); DELETE FROM a WHERE k IN (SELECT k FROM b)"
        cached = _dialect()
        _, statements = cached.prepared.parse(script)
        assert isinstance(statements, ParsedScript)
        assert statements.tables == [("a",), ("a", "b")]
        assert cached.prepared.parse(script)[1] is statements
        uncached = _dialect(prepared_cache=False)
        assert type(uncached.prepared.parse(script)[1]) is list
        assert uncached.prepared.freshness([], 0, uncached.database) is None


class TestWriteInvalidatesOnlyWhatItTouched:
    @pytest.mark.parametrize("write", [
        "INSERT INTO a VALUES (100, 1), (101, 2)",
        "UPDATE a SET v = v + 1 WHERE k < 3",
        "DELETE FROM a WHERE k = 5",
        "INSERT INTO a SELECT k + 500, v FROM c",
    ])
    def test_untouched_table_keeps_snapshot_and_plan(self, write):
        dialect = _dialect()
        database = dialect.database
        dialect.execute(B_ONLY)
        b_snapshot = database.table("b").column_batch()
        a_snapshot = database.table("a").column_batch()
        view = database.pin_view()
        dialect.execute(write)
        assert database.table("b").column_batch() is b_snapshot
        later = database.pin_view()
        assert later.get("b") is view.get("b") is b_snapshot
        assert later.get("c") is view.get("c")
        assert later.get("a") is not a_snapshot
        assert view.get("a") is a_snapshot
        assert _outcome(dialect, B_ONLY) == HIT

    @pytest.mark.parametrize("label", sorted(NAMING_A))
    def test_statement_naming_the_written_table_misses(self, label):
        dialect = _dialect()
        text = NAMING_A[label]
        expected = dialect.execute(text)
        assert _outcome(dialect, text) == HIT
        assert _outcome(dialect, B_ONLY)[2] == 1
        dialect.execute("INSERT INTO a VALUES (200, 1)")
        dialect.execute("DELETE FROM a WHERE k = 200")
        assert _outcome(dialect, text) == MISS
        assert dialect.execute(text) == expected
        assert _outcome(dialect, B_ONLY) == HIT

    @pytest.mark.parametrize("dml", [
        "INSERT INTO c SELECT k + 1000, v FROM a WHERE v = 1",
        "UPDATE c SET v = v WHERE k IN (SELECT k FROM a WHERE v = 9)",
        "DELETE FROM c WHERE k IN (SELECT k FROM a WHERE v = 9)",
    ])
    def test_dml_reading_the_written_table_misses(self, dml):
        dialect = _dialect()
        dialect.execute(dml)
        dialect.execute("INSERT INTO a VALUES (300, 7)")
        assert _outcome(dialect, dml)[1:] == (1, 1)

    def test_one_planning_step_per_dml_plus_one_per_auto_analyze(self):
        dialect = _dialect()
        database = dialect.database
        before = database.plan_freshness(("a", "b", "c"))
        version, heap = database.version, database.table("a").data_version
        dialect.execute("INSERT INTO a VALUES (100, 1), (101, 1), (102, 1)")
        after = database.plan_freshness(("a", "b", "c"))
        assert database.version == version + 2  # the DML, then its auto-analyze
        assert after[0] == before[0] and after[2:] == before[2:]
        assert after[1] == database.version
        # Keyed table: heap and index inserts interleave, one step per row.
        assert database.table("a").data_version == heap + 3
        heap = database.table("b").data_version
        dialect.execute("INSERT INTO b VALUES (100, 1), (101, 1), (102, 1)")
        assert database.table("b").data_version == heap + 1
        # A statement that changes no row moves nothing but its auto-analyze.
        version = database.version
        dialect.execute("UPDATE b SET v = 0 WHERE k = -1")
        assert database.version == version + 1
        assert database.table("b").data_version == heap + 1

    def test_table_analyze_is_narrow_and_database_analyze_is_not(self):
        dialect = _dialect()
        dialect.execute(B_ONLY)
        dialect.execute(NAMING_A["join"])
        dialect.database.analyze("a")
        assert _outcome(dialect, B_ONLY) == HIT
        assert _outcome(dialect, NAMING_A["join"]) == MISS
        dialect.analyze_tables()
        assert _outcome(dialect, B_ONLY) == MISS
        assert _outcome(dialect, NAMING_A["join"]) == MISS

    def test_lazy_auto_analyze_moves_only_its_table(self):
        dialect = _dialect()
        database = dialect.database
        dialect.execute(B_ONLY)
        database.table("c").truncate()
        database.analyze("c")
        database.table("c").insert({"k": 1, "v": 1})  # behind the database's back
        before = database.plan_freshness(("a", "b", "c"))
        assert database.statistics("c").row_count == 1
        after = database.plan_freshness(("a", "b", "c"))
        assert after[:3] == before[:3] and after[3] > before[3]
        assert _outcome(dialect, B_ONLY) == HIT

    @pytest.mark.parametrize("ddl", [
        "CREATE INDEX c_k ON c (k)",
        "DROP TABLE c",
        "CREATE TABLE d (k INT)",
    ])
    def test_ddl_misses_everything(self, ddl):
        dialect = _dialect()
        texts = [B_ONLY, NAMING_A["join"], "SELECT 1"]
        for text in texts:
            dialect.execute(text)
        b_snapshot = dialect.database.table("b").column_batch()
        dialect.execute(ddl)
        for text in texts:
            assert _outcome(dialect, text) == MISS
        # Rows did not change, so the snapshot did not either.
        assert dialect.database.table("b").column_batch() is b_snapshot

    def test_drop_index_misses_everything(self):
        dialect = _dialect()
        dialect.execute("CREATE INDEX c_k ON c (k)")
        dialect.execute(B_ONLY)
        dialect.database.drop_index("c_k")
        assert _outcome(dialect, B_ONLY) == MISS

    def test_drop_and_recreate_never_resurrects(self):
        dialect = _dialect()
        database = dialect.database
        text = "SELECT k FROM c ORDER BY k"
        assert len(dialect.execute(text)) == 12
        old_snapshot = database.table("c").column_batch()
        old_freshness = database.plan_freshness(("c",))
        dialect.execute("DROP TABLE c")
        dialect.execute("CREATE TABLE c (k INT, v INT)")
        assert database.plan_freshness(("c",)) != old_freshness
        assert _outcome(dialect, text) == MISS
        assert dialect.execute(text) == []
        dialect.execute("INSERT INTO c VALUES (7, 7)")
        fresh = database.table("c").column_batch()
        assert fresh is not old_snapshot and fresh.columns["k"] == [7]
        assert database.pin_view().get("c") is fresh
        assert database.plan_freshness(("c",)) > old_freshness
        assert dialect.execute(text) == [{"k": 7}]

    def test_direct_heap_mutation_yields_fresh_snapshot(self):
        dialect = _dialect(executor="vectorized")
        database = dialect.database
        count = "SELECT COUNT(*) AS n FROM b"
        assert dialect.execute(count) == [{"n": 12}]
        b_snapshot = database.table("b").column_batch()
        c_snapshot = database.table("c").column_batch()
        version = database.version
        database.table("b").insert({"k": 99, "v": 9})
        assert database.version == version
        assert database.table("b").column_batch() is not b_snapshot
        assert database.pin_view().get("c") is c_snapshot
        assert dialect.execute(count) == [{"n": 13}]

    def test_half_failed_insert_still_invalidates(self):
        # Keyed tables insert row by row; a duplicate key stops the batch
        # with the earlier rows already in.  The bound a cached plan proved
        # from the old row count must not survive that.
        text = "SELECT k FROM a"
        outputs = []
        for cache in (True, False):
            dialect = _dialect(prepared_cache=cache)
            dialect.explain(text, format="json")
            with pytest.raises(Exception, match="duplicate key"):
                dialect.execute("INSERT INTO a VALUES (50, 1), (51, 1), (52, 1), (3, 3)")
            assert dialect.explain(text, format="json", analyze=True).bound_violations == ()
            outputs.append(dialect.explain(text, format="json").text)
        assert outputs[0] == outputs[1]

    def test_toggles_still_drop_the_cache(self):
        dialect = _dialect()
        for switch in ("decorrelate", "optimize_joins"):
            dialect.execute(NAMING_A["in"])
            assert _outcome(dialect, NAMING_A["in"]) == HIT
            dialect.reconfigure(**{switch: False})
            assert len(dialect.prepared) == 0
            assert _outcome(dialect, NAMING_A["in"]) == MISS
            dialect.reconfigure(**{switch: True})
            assert len(dialect.prepared) == 0

    def test_multi_statement_script_sees_its_own_writes(self):
        dialect = _dialect()
        script = "INSERT INTO b VALUES (77, 1); SELECT COUNT(*) AS n FROM b"
        assert dialect.execute(script) == [{"n": 13}]
        assert dialect.execute(script) == [{"n": 14}]


# ---------------------------------------------------------------------------
# Cached ↔ uncached lockstep fuzz
# ---------------------------------------------------------------------------

TABLES = ("fa", "fb", "fc")

READS = (
    "SELECT k, v FROM {t} WHERE v = {n} ORDER BY k",
    "SELECT k FROM {t} WHERE k = {n}",
    "SELECT v, COUNT(*) AS n FROM {t} GROUP BY v ORDER BY v",
    "SELECT {t}.k, {u}.v FROM {t} JOIN {u} ON {t}.k = {u}.k WHERE {u}.v < {n} ORDER BY {t}.k, {u}.v",
    "SELECT x.k FROM {t} AS x, {u} AS y, {w} AS z WHERE x.k = y.k AND y.k = z.k AND z.v = {n} ORDER BY x.k",
    "SELECT k FROM {t} WHERE k IN (SELECT k FROM {u} WHERE v = {n}) ORDER BY k",
    "SELECT k FROM {t} WHERE k NOT IN (SELECT k FROM {u} WHERE v = {n}) ORDER BY k",
    "SELECT k FROM {t} WHERE EXISTS (SELECT 1 FROM {u} WHERE {u}.k = {t}.k AND {u}.v = {n}) ORDER BY k",
    "SELECT k FROM {t} WHERE v >= (SELECT MAX(v) FROM {u}) - {n} ORDER BY k",
    "SELECT k, (SELECT COUNT(*) FROM {u}) AS n FROM {t} WHERE v = {n} ORDER BY k",
    "SELECT d.k, d.v FROM (SELECT k, v FROM {t} WHERE v <= {n}) AS d ORDER BY d.k",
    "SELECT k FROM {t} WHERE v = {n} UNION SELECT k FROM {u} WHERE v = {n}",
    "SELECT k FROM {t} EXCEPT SELECT k FROM {u} WHERE v < {n}",
    "SELECT COUNT(*) AS n FROM {t}",
    "SELECT k FROM missing_table WHERE k = {n}",
)

WRITES = (
    "INSERT INTO {t} VALUES ({k}, {n}), ({k} + 1, {n})",
    "INSERT INTO {t} VALUES ({k} + 1, {n}), ({n}, {n})",  # fa: second key is a duplicate
    "INSERT INTO {t} SELECT k + {k}, v FROM {u} WHERE v = {n}",
    "UPDATE {t} SET v = v + 1 WHERE v = {n}",
    "UPDATE {t} SET v = {n} WHERE k IN (SELECT k FROM {u} WHERE v = {n})",
    "UPDATE {t} SET v = (SELECT MIN(v) FROM {u}) + {n} WHERE k = {n}",
    "DELETE FROM {t} WHERE k = {n}",
    "DELETE FROM {t} WHERE v = {n} AND k > 40",
)


#: fa crosses both the row-path and the typed-array thresholds.
FUZZ_SETUP = [
    "CREATE TABLE fa (k INT PRIMARY KEY, v INT)",
    "CREATE TABLE fb (k INT, v INT)",
    "CREATE TABLE fc (k INT, v INT)",
] + [
    f"INSERT INTO {name} VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(rows))
    for name, rows in (("fa", 96), ("fb", 40), ("fc", 12))
]


#: Every engine (row, list and numpy vectorized) with the cache on and off.
LOCKSTEP_CELLS = [
    cell for cache in (True, False)
    for cell in kernel_cells("row", "vectorized", prepared_cache=cache)
]


class TestCachedUncachedLockstep:
    STEPS = 220

    def _step(self, rng, serial):
        """One random operation as ``(kind, payload)``."""
        t, u, w = rng.sample(TABLES, 3)
        fill = dict(t=t, u=u, w=w, n=rng.randrange(8), k=1000 + 2 * serial)
        roll = rng.random()
        if roll < 0.30:
            return "execute", rng.choice(WRITES).format(**fill)
        if roll < 0.36:
            return "analyze", t
        if roll < 0.40:
            column = rng.choice(("k", "v"))
            return "execute", f"CREATE INDEX ix_{t}_{column}_{rng.randrange(2)} ON {t} ({column})"
        if roll < 0.70:
            return "execute", rng.choice(READS).format(**fill)
        # DML plans are cached too; EXPLAIN is the only place theirs show.
        return "explain", rng.choice(READS + WRITES).format(**fill)

    def _apply(self, dialect, kind, payload):
        if kind == "execute":
            return observe_rows(lambda: dialect.execute(payload))
        if kind == "analyze":
            return observe_rows(lambda: dialect.database.analyze(payload) or [])
        return {"explain": attempt(lambda: dialect.explain(payload, format="json").text)}

    @pytest.mark.parametrize("seed", [17])
    def test_interleavings_agree_after_every_step(self, seed):
        matrix = Matrix(LOCKSTEP_CELLS, FUZZ_SETUP)
        rng = random.Random(seed)
        kinds = set()
        for serial in range(self.STEPS):
            kind, payload = self._step(rng, serial)
            observed = matrix.each(lambda dialect: self._apply(dialect, kind, payload))
            matrix.agree(payload, observed)
            first = observed[0]
            status = first["explain"][0] if kind == "explain" else ("error" if first["error"] else "ok")
            kinds.add((kind, status))
            # The estimates, costs and bound-capped rows of a fixed probe
            # per table: a stale plan anywhere shows up at the next step.
            for table in TABLES:
                probe = f"SELECT k FROM {table} WHERE v IN (SELECT v FROM fc) ORDER BY k"
                matrix.agree(probe, matrix.each(
                    lambda dialect: {"explain": dialect.explain(probe, format="json").text}
                ))
        # The run exercised what it claims: every kind of step, successes
        # and rejections, and caches that actually served plans.
        assert {("execute", "ok"), ("execute", "error"), ("explain", "ok"), ("analyze", "ok")} <= kinds
        for cell, dialect in zip(matrix.cells, matrix.dialects):
            stats = dialect.prepared.plan_stats
            if cell.config.prepared_cache:
                assert stats.hits > stats.misses, cell
            else:
                assert len(dialect.prepared) == 0, cell

    def test_proven_bounds_hold_after_every_write(self):
        # The size bounds come from actual row counts, which a write moves
        # even when it fails half-way and no auto-analyze follows.
        matrix = Matrix(cells(("vectorized", True, True, True, True),
                              ("vectorized", False, True, True, True)), FUZZ_SETUP)
        rng = random.Random(5)
        outcomes = set()
        for serial in range(80):
            t, u, w = rng.sample(TABLES, 3)
            fill = dict(t=t, u=u, w=w, n=rng.randrange(8), k=2000 + 2 * serial)
            write = rng.choice(WRITES).format(**fill)
            outcomes.add(matrix.check(write)["error"] is None)
            reads = [f"SELECT k FROM {table}" for table in TABLES]
            reads.append(rng.choice(READS[:-1]).format(**fill))
            for read in reads:
                for violations in matrix.each(
                    lambda dialect: dialect.explain(read, format="json", analyze=True).bound_violations
                ):
                    assert violations == (), (serial, write, read)
        assert outcomes == {True, False}


class TestServicePinnedReader:
    def test_pinned_reader_keeps_old_rows_and_shares_untouched_snapshots(self):
        registry = TenantRegistry()
        with QueryService(registry=registry) as service:
            with ServiceClient(service.address) as client:
                session = client.open_session("postgresql", tenant="pins")
                session.execute("CREATE TABLE a (k INT, v INT)")
                session.execute("CREATE TABLE b (k INT, v INT)")
                for name in "ab":
                    session.execute(
                        f"INSERT INTO {name} VALUES "
                        + ", ".join(f"({i}, {i % 3})" for i in range(80))
                    )
                count_a = "SELECT COUNT(*) AS n FROM a"
                count_b = "SELECT COUNT(*) AS n FROM b"
                assert session.execute(count_a) == [{"n": 80}]
                assert session.execute(count_b) == [{"n": 80}]

                dialect = registry.catalog("pins").dialect("postgresql")
                database = dialect.database
                with database.gate.read_locked():
                    pinned = database.pin_view()
                results = registry.catalog("pins").results("postgresql")

                session.execute("INSERT INTO a VALUES (1000, 1)")
                before_a = results.stats.snapshot()
                assert session.execute(count_a) == [{"n": 81}]
                after_a = results.stats.snapshot()
                plans = dialect.prepared.plan_stats.snapshot()
                assert session.execute(count_b) == [{"n": 80}]
                # The write to a made only the results that read a
                # unreachable: count_a missed and ran again, while count_b
                # was a result-cache hit that never reached the plan cache.
                assert (after_a.hits, after_a.misses) == (before_a.hits, before_a.misses + 1)
                assert (results.stats.hits, results.stats.misses) == (after_a.hits + 1, after_a.misses)
                assert dialect.prepared.plan_stats == plans

                with database.gate.read_locked():
                    current = database.pin_view()
                    dialect.executor.snapshot_view = pinned
                    try:
                        assert dialect.execute(count_a) == [{"n": 80}]
                    finally:
                        dialect.executor.snapshot_view = None
                assert current.version > pinned.version
                assert current.get("a") is not pinned.get("a")
                assert current.get("b") is pinned.get("b")
                assert pinned.get("a").length == 80 and current.get("a").length == 81
