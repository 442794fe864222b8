"""Equivalence guarantees for the service path and its snapshot machinery.

Three layers: the MVCC primitives (``DatabaseView`` pinning, catalog
payload round trip), the process read-dispatch path, and the headline
check — a testing campaign routed through a loopback service is
byte-identical to a direct in-process run.
"""

import itertools
import json

import pytest

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, TableSchema
from repro.dialects import EngineConfig, create_dialect
from repro.service import QueryService, ServiceClient, ServiceDialect
from repro.testing.campaign import TestingCampaign


def _build_database(rows=96):
    database = Database("equiv")
    database.create_table(
        TableSchema(
            name="items",
            columns=[
                Column(name="id", data_type=DataType.INTEGER, primary_key=True),
                Column(name="score", data_type=DataType.INTEGER),
                Column(name="label", data_type=DataType.TEXT),
            ],
        )
    )
    database.insert_rows(
        "items",
        [{"id": i, "score": i % 10, "label": f"item-{i}"} for i in range(rows)],
    )
    database.create_index("idx_items_score", "items", ["score"])
    database.analyze()
    return database


class TestDatabaseViewPinning:
    def test_pinned_view_serves_pre_mutation_data(self):
        dialect = create_dialect("postgresql", executor="vectorized")
        dialect.execute("CREATE TABLE pin (a INT, b INT)")
        dialect.execute(
            "INSERT INTO pin VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(96))
        )
        database = dialect.database
        view = database.pin_view()
        pinned_version = view.version

        dialect.execute("INSERT INTO pin VALUES (1000, 2000)")
        assert database.version > pinned_version

        query = "SELECT COUNT(*) AS n FROM pin"
        dialect.executor.snapshot_view = view
        try:
            old = dialect.execute(query)
        finally:
            dialect.executor.snapshot_view = None
        new = dialect.execute(query)
        assert old == [{"n": 96}]
        assert new == [{"n": 97}]

    def test_view_is_immutable_snapshot_of_all_tables(self):
        database = _build_database()
        view = database.pin_view()
        assert "items" in view
        assert "ITEMS" in view  # case-insensitive like the catalog
        assert view.table_names() == ["items"]
        snapshot = view.get("items")
        # The view carries the global version; the snapshot carries its own
        # table's data version.
        table = database.table("items")
        assert view.version == database.version
        assert snapshot.version == table.data_version != view.version
        assert snapshot.length == 96
        # Mutating the database does not touch the pinned snapshot.
        database.insert_rows("items", [{"id": 500, "score": 1, "label": "late"}])
        assert view.get("items") is snapshot
        assert snapshot.length == 96
        later = database.pin_view()
        assert later.version > view.version
        assert later.get("items") is not snapshot
        assert later.get("items").version == table.data_version > snapshot.version

    def test_pin_view_returns_same_snapshots_as_column_batch(self):
        database = _build_database()
        view = database.pin_view()
        assert view.get("items") is database.table("items").column_batch()


class TestCatalogPayloadRoundTrip:
    def test_payload_round_trips_byte_identically(self):
        database = _build_database()
        payload = database.to_payload()
        rebuilt = Database.from_payload(payload)
        assert json.dumps(rebuilt.to_payload(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_rebuilt_catalog_answers_queries_identically(self):
        original = create_dialect("mysql")
        original.execute("CREATE TABLE r (k INT PRIMARY KEY, v TEXT)")
        original.execute("INSERT INTO r VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        original.analyze_tables()

        rebuilt = create_dialect("mysql")
        restored = Database.from_payload(original.database.to_payload())
        rebuilt.database = restored
        rebuilt.planner.database = restored
        rebuilt.executor.database = restored

        query = "SELECT k, v FROM r WHERE k > 1 ORDER BY k"
        assert rebuilt.execute(query) == original.execute(query)
        assert restored.version == original.database.version


class TestProcessDispatch:
    def test_process_reads_match_thread_reads_and_see_writes(self):
        statements = [
            "CREATE TABLE pd (a INT PRIMARY KEY, b INT)",
            "INSERT INTO pd VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(80)),
        ]
        query = "SELECT b, COUNT(*) AS n FROM pd GROUP BY b ORDER BY b"

        with QueryService() as threaded:
            with ServiceClient(threaded.address) as client:
                session = client.open_session("postgresql", tenant="pd")
                for statement in statements:
                    session.execute(statement)
                via_threads = session.execute(query)

        with QueryService(read_dispatch="process", process_workers=2) as forked:
            with ServiceClient(forked.address) as client:
                session = client.open_session("postgresql", tenant="pd")
                for statement in statements:
                    session.execute(statement)
                via_process = session.execute(query)
                # A write invalidates the replica; the next read must
                # resync rather than serve the stale catalog version.
                session.execute("INSERT INTO pd VALUES (1000, 0)")
                after_write = session.execute(query)

        assert via_process == via_threads
        assert after_write != via_process
        assert sum(row["n"] for row in after_write) == 81

    def test_replicas_run_under_the_session_config(self, monkeypatch):
        # Under optimize_joins=False the join below is planned as written;
        # a replica built with the default config once planned it with the
        # optimizer and (hitting a join-orientation bug) counted 0, not 90.
        statements = [
            "CREATE TABLE l (lk INT, v INT)",
            "CREATE TABLE o (ok INT)",
            "INSERT INTO l VALUES " + ", ".join(f"({i % 20}, {i})" for i in range(90)),
            "INSERT INTO o VALUES " + ", ".join(f"({i})" for i in range(20)),
        ]
        query = "SELECT COUNT(*) AS n FROM l, o WHERE ok = lk"
        options = {"optimize_joins": False}
        rows, tasks = {}, []
        for dispatch in ("thread", "process"):
            with QueryService(read_dispatch=dispatch, process_workers=1) as service:
                pool = service._process_pool
                if pool is not None:
                    run = pool.run
                    monkeypatch.setattr(pool, "run", lambda task: tasks.append(task) or run(task))
                with ServiceClient(service.address) as client:
                    session = client.open_session("postgresql", tenant="cfg", options=options)
                    for statement in statements:
                        session.execute(statement)
                    rows[dispatch] = session.execute(query)
        assert rows["process"] == rows["thread"] == [{"n": 90}]
        assert tasks
        assert all(task["config"] == EngineConfig(**options) for task in tasks)


class TestCampaignThroughService:
    @pytest.mark.parametrize("settings", [
        dict(seed=11, queries_per_dbms=8, cert_pairs_per_dbms=3, bound_checks_per_dbms=2),
    ])
    def test_loopback_campaign_is_byte_identical(self, settings):
        direct = TestingCampaign(**settings).run()

        with QueryService() as service:
            clients = []
            counter = itertools.count()

            def factory(dbms_name, options):
                client = ServiceClient(service.address)
                clients.append(client)
                # One tenant per dialect creation mirrors the campaign's
                # fresh-database-per-round semantics.
                session = client.open_session(
                    dbms_name, tenant=f"round-{next(counter)}", options=options
                )
                return ServiceDialect(session)

            served = TestingCampaign(**settings, dialect_factory=factory).run()
            for client in clients:
                client.close()

        assert served.plan_fingerprints == direct.plan_fingerprints
        assert served.unique_plans == direct.unique_plans
        assert served.queries_generated == direct.queries_generated
        assert served.cert_pairs_checked == direct.cert_pairs_checked
        assert served.bound_queries_checked == direct.bound_queries_checked
        assert json.dumps(served.table5_rows(), sort_keys=True) == json.dumps(
            direct.table5_rows(), sort_keys=True
        )

    @pytest.mark.slow
    def test_loopback_campaign_full_size_grid(self):
        settings = dict(
            seed=7,
            queries_per_dbms=30,
            cert_pairs_per_dbms=12,
            bound_checks_per_dbms=6,
        )
        direct = TestingCampaign(**settings).run()
        with QueryService() as service:
            clients = []
            counter = itertools.count()

            def factory(dbms_name, options):
                client = ServiceClient(service.address)
                clients.append(client)
                session = client.open_session(
                    dbms_name, tenant=f"round-{next(counter)}", options=options
                )
                return ServiceDialect(session)

            served = TestingCampaign(**settings, dialect_factory=factory).run()
            for client in clients:
                client.close()
        assert served.plan_fingerprints == direct.plan_fingerprints
        assert json.dumps(served.table5_rows(), sort_keys=True) == json.dumps(
            direct.table5_rows(), sort_keys=True
        )
