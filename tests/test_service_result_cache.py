"""The service's result cache: a repeated read is answered once per table version.

Every check here pairs a served tenant with a direct twin dialect that sees
the same statements, so "the cache is invisible" means "every served answer
equals the twin's, after every step".  The cache keys a read on its
normalized text, the dialect's :class:`EngineConfig` and the plan freshness
of every table it names; these tests write in every way that moves (or must
move) that freshness, and show the lockstep fails once the freshness is
dropped from the key.
"""

import random
import sys
import threading
import time

import pytest

from repro.dialects import create_dialect
from repro.errors import ReproError
from repro.service import QueryService, ServiceClient, ServiceError, TenantRegistry
from repro.service import server
from repro.service.tenants import RESULT_CACHE_ENTRIES, RESULT_CACHE_MAX_ROWS

DBMS = "postgresql"

SETUP = [
    "CREATE TABLE a (k INT PRIMARY KEY, v INT)",
    "CREATE TABLE b (k INT, w INT)",
    "INSERT INTO a VALUES " + ", ".join(f"({i}, {i % 5})" for i in range(40)),
    "INSERT INTO b VALUES " + ", ".join(f"({i % 10}, {i})" for i in range(30)),
]

READS = [
    "SELECT COUNT(*) AS n FROM a",
    "SELECT k, v FROM a WHERE v = 3 ORDER BY k",
    "SELECT v, COUNT(*) AS n, SUM(k) AS s FROM a GROUP BY v ORDER BY v",
    "SELECT a.k, b.w FROM a JOIN b ON a.k = b.k WHERE b.w > 12 ORDER BY b.w",
    "SELECT k, w FROM b WHERE k < 4 ORDER BY w",
    "SELECT MAX(w) AS m FROM b",
]


def _outcome(call):
    """``("ok", result)``, or ``("error", type name)`` served or direct alike."""
    try:
        return ("ok", call())
    except ServiceError as exc:
        return ("error", exc.remote_type)
    except ReproError as exc:
        return ("error", type(exc).__name__)


class Tenant:
    """One tenant served on two connections, beside a direct twin dialect."""

    def __init__(self, service, registry, name="cache", options=None):
        self.clients = [ServiceClient(service.address) for _ in range(2)]
        self.sessions = [
            client.open_session(DBMS, tenant=name, options=options) for client in self.clients
        ]
        self.twin = create_dialect(DBMS, **(options or {}))
        self.dialect = registry.catalog(name).dialect(DBMS)
        self.results = registry.catalog(name).results(DBMS)

    def step(self, op, sql=None, via=0):
        """Apply one step to both sides and assert they answer alike."""
        session = self.sessions[via]
        if op == "execute":
            served = _outcome(lambda: session.execute(sql))
            direct = _outcome(lambda: self.twin.execute(sql))
        elif op == "analyze":
            served = _outcome(session.analyze_tables)
            direct = _outcome(self.twin.analyze_tables)
        else:
            assert op == "reset"
            served = _outcome(session.reset)
            direct = _outcome(self.twin.reset)
        assert served == direct, (op, sql)
        return served

    def read_all(self, via=0):
        for sql in READS:
            self.step("execute", sql, via=via)

    def counts(self):
        stats = self.results.stats
        return stats.hits, stats.misses

    def close(self):
        for client in self.clients:
            client.close()


@pytest.fixture
def served():
    registry = TenantRegistry()
    tenants = []
    with QueryService(registry=registry) as service:

        def open_tenant(name="cache", options=None):
            tenant = Tenant(service, registry, name, options)
            tenants.append(tenant)
            return tenant

        yield open_tenant
        for tenant in tenants:
            tenant.close()


def _loaded(open_tenant, **kwargs):
    tenant = open_tenant(**kwargs)
    for sql in SETUP:
        tenant.step("execute", sql)
    return tenant


#: Each kind of write, as steps on the second connection.
WRITES = {
    "insert": [("execute", "INSERT INTO a VALUES (100, 3)")],
    "update": [("execute", "UPDATE a SET v = 3 WHERE k < 10")],
    "delete": [("execute", "DELETE FROM a WHERE v = 3 AND k > 20")],
    "failing-half-way": [("execute", "INSERT INTO a VALUES (101, 3), (102, 3), (1, 3)")],
    "create-index": [("execute", "CREATE INDEX a_v ON a (v)")],
    "drop-and-recreate": [
        ("execute", "DROP TABLE a"),
        ("execute", "CREATE TABLE a (k INT PRIMARY KEY, v INT)"),
        ("execute", "INSERT INTO a VALUES (7, 3), (8, 3), (9, 1)"),
    ],
    "analyze": [("analyze", None)],
    "reset": [
        ("reset", None),
        ("execute", "CREATE TABLE a (k INT PRIMARY KEY, v INT)"),
        ("execute", "CREATE TABLE b (k INT, w INT)"),
        ("execute", "INSERT INTO a VALUES (3, 3), (4, 3)"),
        ("execute", "INSERT INTO b VALUES (3, 30)"),
    ],
}


class TestReadsSeeEveryWrite:
    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_another_connection_reads_the_write(self, served, kind):
        tenant = _loaded(served)
        tenant.read_all(via=0)
        hits, _ = tenant.counts()
        tenant.read_all(via=0)
        assert tenant.counts()[0] == hits + len(READS)  # every repeat was served
        for op, sql in WRITES[kind]:
            tenant.step(op, sql, via=1)
        _, misses = tenant.counts()
        # Every read names a or b, and every write here moves a's freshness
        # (or the epoch): the reads of a run again and match the twin.
        tenant.read_all(via=0)
        reads_of_a = sum(" a" in sql for sql in READS)
        assert tenant.counts()[1] >= misses + reads_of_a

    def test_a_read_of_a_missing_table_is_never_stored(self, served):
        tenant = _loaded(served)
        query = "SELECT COUNT(*) AS n FROM c"
        assert tenant.step("execute", query)[0] == "error"
        assert tenant.step("execute", query)[0] == "error"
        tenant.step("execute", "CREATE TABLE c (x INT)")
        tenant.step("execute", "INSERT INTO c VALUES (1), (2)")
        assert tenant.step("execute", query) == ("ok", [{"n": 2}])
        assert tenant.counts() == (0, 3)


class TestWhatIsCached:
    def test_tenants_keep_their_own_rows(self, served):
        first, second = served("first"), served("second")
        for tenant, rows in ((first, "(1), (2)"), (second, "(3)")):
            tenant.step("execute", "CREATE TABLE t (x INT)")
            tenant.step("execute", f"INSERT INTO t VALUES {rows}")
        query = "SELECT x FROM t ORDER BY x"
        for _ in range(2):
            assert first.step("execute", query) == ("ok", [{"x": 1}, {"x": 2}])
            assert second.step("execute", query) == ("ok", [{"x": 3}])
        assert first.results is not second.results
        assert first.counts() == second.counts() == (1, 1)

    def test_prepared_cache_off_stores_nothing(self, served):
        tenant = _loaded(served, options={"prepared_cache": False})
        tenant.read_all()
        tenant.read_all(via=1)
        assert len(tenant.results) == 0
        assert tenant.results.stats.lookups == 0

    def test_explains_and_failing_reads_are_never_stored(self, served):
        tenant = _loaded(served)
        session = tenant.sessions[0]
        query = "SELECT k FROM a WHERE v = 1"
        for _ in range(2):
            for prefix in ("EXPLAIN ", "EXPLAIN (FORMAT JSON) "):
                tenant.step("execute", prefix + query)
            # EXPLAIN ANALYZE reports this run's timings, so only its
            # shape can match a twin's; a served copy would repeat them.
            analyzed = session.execute("EXPLAIN ANALYZE " + query)
            assert "actual time" in analyzed[0]["QUERY PLAN"]
            tenant.step("execute", "SELECT k FROM a; EXPLAIN SELECT k FROM b")
            for analyze in (False, True):
                session.explain(query, format="json", analyze=analyze)
            assert tenant.step("execute", "SELECT nope FROM a")[0] == "error"
        assert len(tenant.results) == 0
        assert tenant.counts() == (0, 2)  # only the failing SELECT looked

    def test_prepared_reads_are_cached_like_texts(self, served):
        tenant = _loaded(served)
        session = tenant.sessions[0]
        handle = session.prepare(READS[1])
        first = session.execute_prepared(handle)
        assert session.execute(READS[1]) == first == tenant.twin.execute(READS[1])
        assert tenant.counts() == (1, 1)
        tenant.step("execute", "UPDATE a SET v = 3 WHERE k = 0", via=1)
        assert session.execute_prepared(handle) == tenant.twin.execute(READS[1])
        assert tenant.counts() == (1, 2)

    def test_a_script_is_keyed_on_every_table_it_names(self, served):
        tenant = _loaded(served)
        script = "SELECT COUNT(*) AS n FROM a; SELECT COUNT(*) AS n FROM b"
        tenant.step("execute", script)
        tenant.step("execute", script)
        assert tenant.counts() == (1, 1)
        # The script answers b's count, but it read a too.
        tenant.step("execute", "INSERT INTO a VALUES (200, 0)", via=1)
        tenant.step("execute", script)
        assert tenant.counts() == (1, 2)
        tenant.step("execute", "INSERT INTO b VALUES (0, 0)", via=1)
        assert tenant.step("execute", script) == ("ok", [{"n": 31}])
        assert tenant.counts() == (1, 3)

    def test_a_config_change_is_a_different_key(self, served):
        # Join reordering lists SELECT * columns in join order (the known
        # StarColumnOrder defect), so a cached answer from before the
        # switch would come back with its columns in the other order.
        tenant = served()
        tenant.step("execute", "CREATE TABLE a (x INT)")
        tenant.step("execute", "CREATE TABLE b (y INT)")
        tenant.step("execute", "INSERT INTO a VALUES " + ", ".join(f"({i})" for i in range(50)))
        tenant.step("execute", "INSERT INTO b VALUES (1), (2)")
        query = "SELECT * FROM a, b WHERE b.y > 1 AND a.x < 3"
        columns = []
        for optimize_joins in (True, False):
            tenant.dialect.reconfigure(optimize_joins=optimize_joins)
            tenant.twin.reconfigure(optimize_joins=optimize_joins)
            for _ in range(2):
                rows = tenant.step("execute", query)[1]
                assert [list(row) for row in rows] == [list(row) for row in tenant.twin.execute(query)]
            columns.append(list(rows[0]))
        assert columns[0] != columns[1]
        assert tenant.counts() == (2, 2)

    def test_a_hit_is_still_cancellable(self, served):
        tenant = _loaded(served)
        session = tenant.sessions[0]
        tenant.step("execute", READS[0])
        outcome = {}

        def cancel_soon():
            deadline = time.monotonic() + 5
            while not session.cancel_from_new_connection() and time.monotonic() < deadline:
                time.sleep(0.005)

        canceller = threading.Thread(target=cancel_soon)
        canceller.start()
        try:
            session.execute(READS[0], delay_ms=5000)
        except ServiceError as exc:
            outcome["type"] = exc.remote_type
        canceller.join()
        assert outcome == {"type": "StatementCancelled"}
        assert tenant.step("execute", READS[0]) == ("ok", [{"n": 40}])


class TestBounds:
    def test_entry_bound(self, served):
        tenant = _loaded(served)
        for value in range(RESULT_CACHE_ENTRIES + 10):
            tenant.sessions[0].execute(f"SELECT k FROM a WHERE k = {value}")
        assert len(tenant.results) == RESULT_CACHE_ENTRIES
        assert tenant.results.stats.evictions == 10

    def test_row_bound(self, served):
        tenant = served()
        tenant.step("execute", "CREATE TABLE big (x INT)")
        tenant.step(
            "execute",
            "INSERT INTO big VALUES " + ", ".join(f"({i})" for i in range(RESULT_CACHE_MAX_ROWS + 1)),
        )
        for _ in range(2):
            tenant.step("execute", "SELECT x FROM big")
        assert len(tenant.results) == 0
        for _ in range(2):
            tenant.step("execute", f"SELECT x FROM big LIMIT {RESULT_CACHE_MAX_ROWS}")
        assert len(tenant.results) == 1
        assert tenant.counts() == (1, 3)

    @pytest.mark.parametrize("executor", ["row", "vectorized", "parallel"])
    def test_the_engine_hands_out_fresh_rows(self, executor):
        # Cached rows are shared between hits without a copy; that is only
        # safe because no execution returns row objects another one holds.
        twin = create_dialect(DBMS, executor=executor)
        for sql in SETUP:
            twin.execute(sql)
        for sql in READS + ["SELECT * FROM a", "SELECT * FROM b ORDER BY w LIMIT 3"]:
            first, second = twin.execute(sql), twin.execute(sql)
            assert first == second
            assert not any(x is y for x, y in zip(first, second))


def _random_step(rng, counter):
    """One random read (repeats are likely) or write on ``a`` / ``b``."""
    roll = rng.random()
    if roll < 0.6:
        return "execute", rng.choice(READS)
    if roll < 0.7:
        key = next(counter)
        return "execute", f"INSERT INTO {rng.choice('ab')} VALUES ({key}, {rng.randrange(5)})"
    if roll < 0.78:
        return "execute", f"UPDATE a SET v = {rng.randrange(5)} WHERE k = {rng.randrange(60)}"
    if roll < 0.86:
        return "execute", f"DELETE FROM b WHERE w = {rng.randrange(40)}"
    if roll < 0.9:
        # A duplicate primary key: the write fails after earlier rows went in.
        return "execute", f"INSERT INTO a VALUES ({next(counter)}, 1), ({rng.randrange(40)}, 2)"
    if roll < 0.94:
        return "execute", rng.choice(["CREATE INDEX b_w ON b (w)", "DROP INDEX b_w"])
    if roll < 0.97:
        return "analyze", None
    return "execute", "UPDATE b SET w = w + 1 WHERE k = 3"


def _lockstep(open_tenant, seed, steps):
    """*steps* random statements through two connections; every answer is the twin's."""
    rng = random.Random(seed)
    counter = iter(range(1000, 10**6))
    tenant = _loaded(open_tenant, name=f"lockstep-{seed}")
    for _ in range(steps):
        op, sql = _random_step(rng, counter)
        tenant.step(op, sql, via=rng.randrange(2))
    return tenant


class TestLockstep:
    def test_random_reads_and_writes_match_a_direct_twin(self, served):
        tenant = _lockstep(served, seed=1, steps=200)
        hits, misses = tenant.counts()
        assert hits > 20 and misses > 20

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2, 8))
    def test_longer_lockstep_grid(self, served, seed):
        _lockstep(served, seed=seed, steps=600)


class TestConcurrentReaders:
    def test_no_read_is_older_than_the_last_finished_write(self, served):
        # Four readers and a writer on a 2-CPU host, switching threads every
        # 10 us: a count read after an INSERT returned must include it.
        tenant = served("stress")
        tenant.step("execute", "CREATE TABLE t (x INT)")
        address = tenant.clients[0].address
        committed = [0]
        errors = []
        stop = threading.Event()

        def writer():
            with ServiceClient(address) as client:
                session = client.open_session(DBMS, tenant="stress")
                for value in range(1, 61):
                    session.execute(f"INSERT INTO t VALUES ({value})")
                    committed[0] = value
            stop.set()

        def reader():
            with ServiceClient(address) as client:
                session = client.open_session(DBMS, tenant="stress")
                seen = 0
                while not stop.is_set():
                    floor = committed[0]
                    count = session.execute("SELECT COUNT(*) AS n FROM t")[0]["n"]
                    if count < max(floor, seen):
                        errors.append((floor, seen, count))
                    seen = count

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tenant.results.stats.hits > 0


class TestHarnessCanFail:
    def test_a_key_without_freshness_serves_stale_rows(self, served, monkeypatch):
        result_key = server._result_key

        def stale(dialect, text_key, statements):
            key = result_key(dialect, text_key, statements)
            return None if key is None else key[:2]

        monkeypatch.setattr(server, "_result_key", stale)
        with pytest.raises(AssertionError):
            _lockstep(served, seed=1, steps=200)


class TestProcessDispatch:
    def test_a_hit_never_reaches_the_replica_pool(self, monkeypatch):
        registry = TenantRegistry()
        with QueryService(read_dispatch="process", process_workers=1, registry=registry) as service:
            pool_runs = []
            run = service._process_pool.run
            monkeypatch.setattr(
                service._process_pool, "run", lambda task: pool_runs.append(task) or run(task)
            )
            tenant = Tenant(service, registry)
            try:
                for sql in SETUP:
                    tenant.step("execute", sql)
                tenant.step("execute", READS[2])
                runs = len(pool_runs)
                tenant.step("execute", READS[2], via=1)
                assert len(pool_runs) == runs
                tenant.step("execute", "UPDATE a SET v = 0 WHERE k = 1")
                tenant.step("execute", READS[2])
                assert len(pool_runs) > runs
            finally:
                tenant.close()
