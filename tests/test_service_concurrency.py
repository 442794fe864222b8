"""Threaded stress tests for the thread-safe core and the query service.

The light grids run in tier-1; the heavy grids (more sessions, more
iterations) sit behind the ``slow`` marker (``--runslow``).
"""

import sys
import threading
import time

import pytest

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, TableSchema
from repro.core.caching import LRUCache
from repro.core.concurrency import AtomicCounter, ReadWriteGate
from repro.service import (
    QueryService,
    ServiceClient,
    StatementCancelled,
    TenantRegistry,
)


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# Satellite 1: the lock-guarded LRU under concurrent readers/writers
# ---------------------------------------------------------------------------


class TestLRUCacheConcurrency:
    def test_counters_stay_exact_under_concurrent_hits(self):
        cache = LRUCache(maxsize=64)
        for key in range(32):
            cache.put(key, key * 10)
        lookups_per_thread = 2000
        threads = 8

        def reader(offset):
            def run():
                for i in range(lookups_per_thread):
                    key = (offset + i) % 32
                    assert cache.get(key) == key * 10
            return run

        _run_threads([reader(offset) for offset in range(threads)])
        stats = cache.stats
        assert stats.hits == threads * lookups_per_thread
        assert stats.misses == 0

    def test_misses_are_counted_exactly(self):
        cache = LRUCache(maxsize=8)
        misses_per_thread = 1500

        def misser(offset):
            def run():
                for i in range(misses_per_thread):
                    assert cache.get(("absent", offset, i)) is None
            return run

        _run_threads([misser(offset) for offset in range(4)])
        stats = cache.stats
        assert stats.misses == 4 * misses_per_thread
        assert stats.hits == 0

    def test_eviction_under_concurrent_get_put(self):
        cache = LRUCache(maxsize=16)
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                cache.put(i % 64, i)
                i += 1

        def reader():
            try:
                for i in range(4000):
                    value = cache.get(i % 64)
                    if value is not None and value % 64 != i % 64:
                        failures.append((i % 64, value))
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))
            finally:
                stop.set()

        _run_threads([writer, writer, reader, reader])
        stop.set()
        assert not failures
        assert len(cache) <= 16
        stats = cache.stats
        assert stats.hits + stats.misses == 8000

    def test_contended_hit_refreshes_recency_eventually(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        # A deferred hit parks in the pending queue; the next locked
        # operation folds it in, so "a" is most-recent and "b" evicts.
        cache._lock.acquire()
        assert cache.get("a") == 1  # contended path: deferred
        cache._lock.release()
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# Satellite 2: atomic snapshot build in HeapTable.column_batch
# ---------------------------------------------------------------------------


class TestSnapshotBuildAtomicity:
    def _database(self, rows=64):
        database = Database("snap")
        database.create_table(
            TableSchema(
                name="t",
                columns=[
                    Column(name="a", data_type=DataType.INTEGER),
                    Column(name="b", data_type=DataType.INTEGER),
                ],
            )
        )
        database.insert_rows("t", [{"a": i, "b": i * 2} for i in range(rows)])
        return database

    def test_concurrent_builds_share_one_snapshot(self):
        database = self._database()
        table = database.table("t")
        barrier = threading.Barrier(8)
        snapshots = []

        def build():
            barrier.wait()
            snapshots.append(table.column_batch())

        _run_threads([build] * 8)
        assert len({id(snapshot) for snapshot in snapshots}) == 1
        # The snapshot carries the table's own data version, not the
        # catalog's: one insert_rows batch is one step on the heap.
        assert table.data_version == 1
        assert all(snapshot.version == table.data_version for snapshot in snapshots)

    def test_no_torn_snapshot_during_mutation_churn(self):
        database = self._database()
        table = database.table("t")
        stop = threading.Event()
        failures = []

        def mutator():
            i = 1000
            while not stop.is_set():
                database.insert_rows("t", [{"a": i, "b": i * 2}])
                i += 1

        def scanner():
            try:
                for _ in range(300):
                    snapshot = table.column_batch()
                    length = snapshot.length
                    for name, values in snapshot.columns.items():
                        if len(values) != length:
                            failures.append((name, len(values), length))
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))
            finally:
                stop.set()

        _run_threads([mutator, scanner, scanner])
        stop.set()
        assert not failures

    def test_direct_mutation_still_invalidates_same_version_snapshot(self):
        # The PR-4 rule survives the locking: a direct table mutation moves
        # the heap's data version though the catalog version stands still,
        # so the rebuild serves the new data.
        database = self._database(rows=4)
        table = database.table("t")
        version = database.version
        before = table.column_batch()
        assert before.length == 4
        table.insert({"a": 99, "b": 198})
        after = table.column_batch()
        assert database.version == version
        assert after is not before
        assert after.length == 5


# ---------------------------------------------------------------------------
# The readers-writer gate
# ---------------------------------------------------------------------------


class TestReadWriteGate:
    def test_readers_are_concurrent(self):
        gate = ReadWriteGate()
        active = AtomicCounter()
        peak = []
        barrier = threading.Barrier(4)

        def reader():
            barrier.wait()
            with gate.read_locked():
                peak.append(active.increment())
                time.sleep(0.02)
                active.increment(-1)

        _run_threads([reader] * 4)
        assert max(peak) > 1

    def test_writer_excludes_readers_and_writers(self):
        gate = ReadWriteGate()
        log = []

        def writer(tag):
            def run():
                with gate.write_locked():
                    log.append((tag, "in"))
                    time.sleep(0.01)
                    log.append((tag, "out"))
            return run

        _run_threads([writer("w1"), writer("w2")])
        # Writers serialized: in/out pairs never interleave.
        assert [entry[1] for entry in log] == ["in", "out", "in", "out"]

    def test_waiting_writer_blocks_new_readers(self):
        gate = ReadWriteGate()
        order = []
        reader_released = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with gate.read_locked():
                writer_waiting.wait(timeout=5)
                time.sleep(0.01)
                order.append("reader1-done")

        def writer():
            thread = threading.Thread(target=lambda: None)
            del thread
            writer_waiting.set()
            with gate.write_locked():
                order.append("writer-done")
            reader_released.set()

        def late_reader():
            writer_waiting.wait(timeout=5)
            time.sleep(0.005)  # let the writer reach its wait first
            with gate.read_locked():
                order.append("reader2-done")

        _run_threads([first_reader, writer, late_reader])
        # Writer preference: the late reader cannot overtake the writer.
        assert order.index("writer-done") < order.index("reader2-done")


# ---------------------------------------------------------------------------
# Satellite 3: service-level stress — sessions, leakage, cancellation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    with QueryService() as running:
        yield running


def _session_workload(service, tenant, position, cycles, failures):
    """One session's private mixed DDL/DML/SELECT loop with a local oracle."""
    try:
        with ServiceClient(service.address) as client:
            session = client.open_session("postgresql", tenant=tenant)
            table = f"w{position}"
            session.execute(f"CREATE TABLE {table} (k INT PRIMARY KEY, v INT)")
            expected = {}
            for cycle in range(cycles):
                session.execute(f"INSERT INTO {table} VALUES ({cycle}, {cycle * 7})")
                expected[cycle] = cycle * 7
                if cycle % 3 == 2:
                    session.execute(
                        f"UPDATE {table} SET v = {cycle * 100} WHERE k = {cycle - 1}"
                    )
                    expected[cycle - 1] = cycle * 100
                if cycle % 4 == 3:
                    session.execute(f"DELETE FROM {table} WHERE k = {cycle - 3}")
                    del expected[cycle - 3]
                rows = session.execute(f"SELECT k, v FROM {table} ORDER BY k")
                observed = {row["k"]: row["v"] for row in rows}
                if observed != expected:
                    failures.append((position, cycle, observed, expected))
                    return
            session.close()
    except Exception as exc:  # noqa: BLE001
        failures.append((position, repr(exc)))


class TestServiceConcurrency:
    def test_mixed_workload_sessions_have_consistent_oracles(self, service):
        failures = []
        workers = [
            (lambda p: (lambda: _session_workload(service, "mixed", p, 8, failures)))(p)
            for p in range(4)
        ]
        _run_threads(workers)
        assert not failures, failures[:3]

    @pytest.mark.slow
    def test_mixed_workload_heavy_grid(self, service):
        failures = []
        workers = [
            (lambda p: (lambda: _session_workload(service, "mixed-heavy", p, 40, failures)))(p)
            for p in range(10)
        ]
        _run_threads(workers)
        assert not failures, failures[:3]

    def test_shared_tenant_readers_never_see_torn_state(self, service):
        failures = []
        with ServiceClient(service.address) as writer_client:
            writer = writer_client.open_session("postgresql", tenant="torn")
            writer.execute("CREATE TABLE torn (id INT PRIMARY KEY, val INT)")
            writer.execute(
                "INSERT INTO torn VALUES " + ", ".join(f"({i}, 0)" for i in range(40))
            )
            stop = threading.Event()

            def writer_main():
                generation = 1
                try:
                    while not stop.is_set():
                        writer.execute(f"UPDATE torn SET val = {generation}")
                        generation += 1
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))

            def reader_main():
                try:
                    with ServiceClient(service.address) as client:
                        session = client.open_session("postgresql", tenant="torn")
                        for _ in range(30):
                            rows = session.execute("SELECT val FROM torn")
                            observed = {row["val"] for row in rows}
                            if len(observed) != 1:
                                failures.append(("torn read", observed))
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))
                finally:
                    stop.set()

            _run_threads([writer_main, reader_main, reader_main])
            stop.set()
        assert not failures, failures[:3]

    def test_cross_tenant_leakage_probe(self, service):
        failures = []

        def tenant_main(tenant, marker):
            def run():
                try:
                    with ServiceClient(service.address) as client:
                        session = client.open_session("postgresql", tenant=tenant)
                        session.execute("CREATE TABLE leak_probe (who INT)")
                        session.execute(f"INSERT INTO leak_probe VALUES ({marker})")
                        for _ in range(25):
                            rows = session.execute("SELECT who FROM leak_probe")
                            values = {row["who"] for row in rows}
                            if values != {marker}:
                                failures.append((tenant, values))
                except Exception as exc:  # noqa: BLE001
                    failures.append((tenant, repr(exc)))
            return run

        _run_threads([tenant_main("leak-a", 1), tenant_main("leak-b", 2)])
        assert not failures, failures[:3]

    def test_cancellation_mid_statement(self, service):
        with ServiceClient(service.address) as client:
            session = client.open_session("mysql", tenant="cancel")
            session.execute("CREATE TABLE c (a INT)")
            session.execute("INSERT INTO c VALUES (1)")
            outcome = {}

            def run():
                try:
                    session.execute("SELECT * FROM c", delay_ms=5000)
                    outcome["status"] = "completed"
                except StatementCancelled:
                    outcome["status"] = "cancelled"

            thread = threading.Thread(target=run)
            started = time.monotonic()
            thread.start()
            delivered = False
            while not delivered and time.monotonic() - started < 4:
                delivered = session.cancel_from_new_connection()
                time.sleep(0.01)
            thread.join()
            assert delivered
            assert outcome["status"] == "cancelled"
            assert time.monotonic() - started < 4
            # The session is still usable after cancellation.
            assert session.execute("SELECT a FROM c") == [{"a": 1}]
            session.close()

    def test_cancel_without_inflight_statement_is_not_delivered(self, service):
        with ServiceClient(service.address) as client:
            session = client.open_session("mysql", tenant="cancel-idle")
            assert session.cancel_from_new_connection() is False
            session.close()

    def test_cancelled_write_queued_behind_the_gate_does_not_run(self):
        registry = TenantRegistry()
        with QueryService(registry=registry) as running:
            address = running.address
            with ServiceClient(address) as client_a, ServiceClient(address) as client_b, \
                    ServiceClient(address) as client_c:
                session = client_a.open_session("postgresql", tenant="gate-cancel")
                session.execute("CREATE TABLE g (a INT)")
                session.execute("INSERT INTO g VALUES (1)")
                gate = registry.catalog("gate-cancel").dialect("postgresql").database.gate
                outcome = {}

                def insert():
                    try:
                        session.execute("INSERT INTO g VALUES (2)")
                        outcome["insert"] = "completed"
                    except StatementCancelled:
                        outcome["insert"] = "cancelled"

                def update():
                    outcome["update"] = client_c.request(
                        "execute", session=session.id, sql="UPDATE g SET a = a + 10"
                    )["rows"]

                gate.acquire_write()
                try:
                    inserter = threading.Thread(target=insert)
                    inserter.start()
                    # The insert holds the session lock and queues on the gate.
                    deadline = time.monotonic() + 4
                    while not client_b.cancel(session.id) and time.monotonic() < deadline:
                        time.sleep(0.005)
                    updater = threading.Thread(target=update)
                    updater.start()
                    time.sleep(0.05)
                    assert "update" not in outcome
                finally:
                    gate.release_write()
                inserter.join(timeout=4)
                updater.join(timeout=4)
                assert not inserter.is_alive() and not updater.is_alive()
                assert outcome["insert"] == "cancelled"
                # The cancelled insert never ran, and the update — queued on
                # the session lock, not racing for the gate — saw one row.
                assert session.execute("SELECT a FROM g ORDER BY a") == [{"a": 11}]

    def test_two_connections_preparing_on_one_session_get_distinct_handles(self, service):
        with ServiceClient(service.address) as first, ServiceClient(service.address) as second:
            session = first.open_session("postgresql", tenant="prepare-race")
            session.execute("CREATE TABLE pr (a INT)")
            session.execute("INSERT INTO pr VALUES (7)")
            handles = {first: [], second: []}
            barrier = threading.Barrier(2)

            def prepare_many(client):
                def run():
                    barrier.wait()
                    for _ in range(50):
                        response = client.request(
                            "prepare", session=session.id, sql="SELECT a FROM pr"
                        )
                        handles[client].append(response["statement"])
                return run

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                _run_threads([prepare_many(first), prepare_many(second)])
            finally:
                sys.setswitchinterval(interval)
            assert len(set(handles[first]) | set(handles[second])) == 100
            # Each handle executes from either connection.
            for client, other in ((first, second), (second, first)):
                for handle in handles[other]:
                    rows = client.request(
                        "execute_prepared", session=session.id, statement=handle
                    )["rows"]
                    assert rows == [{"a": 7}]

    @pytest.mark.slow
    def test_ddl_churn_with_concurrent_readers_heavy(self, service):
        failures = []

        def churn(position):
            def run():
                try:
                    with ServiceClient(service.address) as client:
                        session = client.open_session("postgresql", tenant="churn-heavy")
                        table = f"h{position}"
                        for cycle in range(30):
                            session.execute(f"CREATE TABLE {table} (x INT)")
                            session.execute(f"INSERT INTO {table} VALUES ({cycle})")
                            rows = session.execute(f"SELECT x FROM {table}")
                            if rows != [{"x": cycle}]:
                                failures.append((position, cycle, rows))
                            session.execute(f"DROP TABLE {table}")
                except Exception as exc:  # noqa: BLE001
                    failures.append((position, repr(exc)))
            return run

        _run_threads([churn(position) for position in range(8)])
        assert not failures, failures[:3]
