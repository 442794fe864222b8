"""Service-layer benchmarks: concurrent clients against the query service.

Four measurements feed ``BENCH_service.json``:

* **Concurrent read throughput** — one client executing a SELECT workload
  serially vs eight concurrent clients sharing the same total workload,
  with p50/p99 per-statement latency.  The concurrent run uses
  ``read_dispatch="process"`` (worker processes with replica databases), so
  on a multi-core host the statements genuinely overlap.  The
  ``concurrent_read_speedup_at_least_2_5x`` floor is judged only where it
  is judgeable — at least four CPUs and the full-size corpus; gated hosts
  still record the measured speedup (``scaling_gated``), exactly like
  ``BENCH_parallel.json``.
* **Isolation probe** — a writer flips an entire table between consistent
  states while readers scan it; every read must observe one state, never a
  mixture (``isolation_reads_consistent``, enforced everywhere).
* **DDL linearizability + tenant leakage probe** — sessions churn
  create/insert/select/drop cycles on private tables while two tenants use
  the same table name with different contents; no statement may fail
  unexpectedly and no session may ever see the other tenant's rows
  (``ddl_linearizable`` / ``zero_cross_tenant_leakage``, enforced).
* **Campaign equivalence** — a small :class:`TestingCampaign` through a
  loopback service vs direct dialects: coverage, counters, and Table V must
  be byte-identical (``campaign_through_service_identical``, enforced).
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import threading
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.service import QueryService, ServiceClient, ServiceDialect
from repro.testing.campaign import TestingCampaign

#: The acceptance floor: at least this many concurrent clients.
CONCURRENT_CLIENTS = 8

_READ_QUERIES = [
    "SELECT a, b FROM bench WHERE a > 40",
    "SELECT a, COUNT(*) AS n FROM bench WHERE b IS NOT NULL GROUP BY a ORDER BY a",
    "SELECT bench.a, dim.v FROM bench JOIN dim ON bench.a = dim.k WHERE bench.c > 50.0",
    "SELECT a, c FROM bench WHERE b < 11 ORDER BY c DESC",
]


def _seed_tables(session, rows: int) -> None:
    session.execute("CREATE TABLE bench (a INT, b INT, c REAL)")
    values = ", ".join(
        f"({i % 89}, {f'{(i * 3) % 17}' if i % 13 else 'NULL'}, {float(i) * 0.25})"
        for i in range(rows)
    )
    session.execute(f"INSERT INTO bench VALUES {values}")
    session.execute("CREATE TABLE dim (k INT, v INT)")
    dim_values = ", ".join(f"({i % 89}, {i})" for i in range(rows // 2))
    session.execute(f"INSERT INTO dim VALUES {dim_values}")
    session.analyze_tables()


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def measure_read_throughput(quick: bool = False) -> dict:
    """Single-client serial vs eight concurrent clients, same total work."""
    rows = 400 if quick else 2000
    total_ops = 48 if quick else 240
    per_client = total_ops // CONCURRENT_CLIENTS
    cpus = os.cpu_count() or 1
    with QueryService(
        read_dispatch="process",
        process_workers=min(CONCURRENT_CLIENTS, max(cpus, 2)),
    ) as service:
        with ServiceClient(service.address) as seed_client:
            seed_session = seed_client.open_session("postgresql", tenant="bench")
            _seed_tables(seed_session, rows)

            # Warm the replicas (first statement per worker pays the
            # catalog resync) so both measurements see steady state.
            for _ in range(CONCURRENT_CLIENTS):
                seed_session.execute(_READ_QUERIES[0])

            serial_latencies = []
            started = time.perf_counter()
            for op in range(total_ops):
                begun = time.perf_counter()
                seed_session.execute(_READ_QUERIES[op % len(_READ_QUERIES)])
                serial_latencies.append((time.perf_counter() - begun) * 1000.0)
            serial_seconds = time.perf_counter() - started

        latencies_per_client = [[] for _ in range(CONCURRENT_CLIENTS)]
        errors = []

        def client_main(position: int) -> None:
            try:
                with ServiceClient(service.address) as client:
                    session = client.open_session("postgresql", tenant="bench")
                    for op in range(per_client):
                        begun = time.perf_counter()
                        session.execute(_READ_QUERIES[op % len(_READ_QUERIES)])
                        latencies_per_client[position].append(
                            (time.perf_counter() - begun) * 1000.0
                        )
            except Exception as exc:  # noqa: BLE001 - recorded, fails the flag
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=client_main, args=(position,))
            for position in range(CONCURRENT_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent_seconds = time.perf_counter() - started

    concurrent_latencies = [
        sample for samples in latencies_per_client for sample in samples
    ]
    serial_throughput = total_ops / serial_seconds if serial_seconds else 0.0
    concurrent_throughput = (
        len(concurrent_latencies) / concurrent_seconds if concurrent_seconds else 0.0
    )
    return {
        "rows": rows,
        "total_ops": total_ops,
        "clients": CONCURRENT_CLIENTS,
        "dispatch": "process",
        "errors": errors,
        "serial": {
            "seconds": serial_seconds,
            "ops_per_second": serial_throughput,
            "p50_ms": _percentile(serial_latencies, 0.50),
            "p99_ms": _percentile(serial_latencies, 0.99),
        },
        "concurrent": {
            "seconds": concurrent_seconds,
            "ops_per_second": concurrent_throughput,
            "p50_ms": _percentile(concurrent_latencies, 0.50),
            "p99_ms": _percentile(concurrent_latencies, 0.99),
        },
        "speedup": (
            concurrent_throughput / serial_throughput if serial_throughput else 0.0
        ),
        "all_clients_completed": not errors
        and len(concurrent_latencies) == per_client * CONCURRENT_CLIENTS,
    }


def measure_isolation(quick: bool = False) -> dict:
    """Readers must never observe a half-applied write (torn state)."""
    rows = 32 if quick else 128
    reads = 40 if quick else 160
    inconsistent = 0
    errors = []
    with QueryService() as service:
        with ServiceClient(service.address) as writer_client:
            writer = writer_client.open_session("postgresql", tenant="iso")
            writer.execute("CREATE TABLE iso (id INT PRIMARY KEY, val INT)")
            writer.execute(
                "INSERT INTO iso VALUES "
                + ", ".join(f"({i}, 0)" for i in range(rows))
            )
            writer.analyze_tables()

            stop = threading.Event()

            def writer_main() -> None:
                generation = itertools.count(1)
                try:
                    while not stop.is_set():
                        writer.execute(f"UPDATE iso SET val = {next(generation)}")
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            torn_counter = {"count": 0}

            def reader_main() -> None:
                try:
                    with ServiceClient(service.address) as client:
                        session = client.open_session("postgresql", tenant="iso")
                        for _ in range(reads):
                            observed = {
                                row["val"]
                                for row in session.execute("SELECT val FROM iso")
                            }
                            if len(observed) != 1:
                                torn_counter["count"] += 1
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
            writer_thread = threading.Thread(target=writer_main)
            reader_threads = [threading.Thread(target=reader_main) for _ in range(3)]
            writer_thread.start()
            for thread in reader_threads:
                thread.start()
            for thread in reader_threads:
                thread.join()
            stop.set()
            writer_thread.join()
            inconsistent = torn_counter["count"]
    return {
        "rows": rows,
        "reads_per_reader": reads,
        "readers": 3,
        "torn_reads": inconsistent,
        "errors": errors,
        "consistent": inconsistent == 0 and not errors,
    }


def measure_ddl_and_leakage(quick: bool = False) -> dict:
    """DDL linearizability churn plus the cross-tenant leakage probe."""
    cycles = 6 if quick else 20
    errors = []
    leaks = 0
    with QueryService() as service:

        def churn_main(position: int) -> None:
            try:
                with ServiceClient(service.address) as client:
                    session = client.open_session("mysql", tenant="churn")
                    table = f"t{position}"
                    for cycle in range(cycles):
                        session.execute(f"CREATE TABLE {table} (x INT)")
                        session.execute(
                            f"INSERT INTO {table} VALUES ({position}), ({cycle})"
                        )
                        rows = session.execute(f"SELECT x FROM {table} ORDER BY x")
                        if [row["x"] for row in rows] != sorted([position, cycle]):
                            errors.append(f"wrong rows in {table} cycle {cycle}")
                        session.execute(f"DROP TABLE {table}")
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def tenant_main(tenant: str, marker: int, counters: dict) -> None:
            try:
                with ServiceClient(service.address) as client:
                    session = client.open_session("postgresql", tenant=tenant)
                    session.execute("CREATE TABLE shared_name (who INT)")
                    session.execute(f"INSERT INTO shared_name VALUES ({marker})")
                    for _ in range(cycles * 2):
                        rows = session.execute("SELECT who FROM shared_name")
                        values = {row["who"] for row in rows}
                        if values != {marker}:
                            counters["leaks"] += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        counters = {"leaks": 0}
        threads = [
            threading.Thread(target=churn_main, args=(position,))
            for position in range(4)
        ]
        threads.append(
            threading.Thread(target=tenant_main, args=("tenant-a", 1, counters))
        )
        threads.append(
            threading.Thread(target=tenant_main, args=("tenant-b", 2, counters))
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        leaks = counters["leaks"]
    return {
        "cycles": cycles,
        "churn_sessions": 4,
        "errors": errors,
        "leaks": leaks,
        "ddl_linearizable": not errors,
        "zero_leakage": leaks == 0,
    }


def measure_campaign_equivalence(quick: bool = False) -> dict:
    """Direct campaign vs campaign through a loopback service."""
    settings = dict(
        seed=7,
        queries_per_dbms=10 if quick else 30,
        cert_pairs_per_dbms=4 if quick else 12,
        bound_checks_per_dbms=2 if quick else 6,
    )
    direct = TestingCampaign(**settings).run()
    with QueryService() as service:
        clients = []
        counter = itertools.count()

        def factory(dbms_name, options):
            client = ServiceClient(service.address)
            clients.append(client)
            # One tenant per dialect creation mirrors the direct campaign's
            # fresh-database-per-round semantics.
            session = client.open_session(
                dbms_name, tenant=f"round-{next(counter)}", options=options
            )
            return ServiceDialect(session)

        served = TestingCampaign(**settings, dialect_factory=factory).run()
        for client in clients:
            client.close()
    identical = (
        direct.plan_fingerprints == served.plan_fingerprints
        and direct.unique_plans == served.unique_plans
        and direct.queries_generated == served.queries_generated
        and direct.cert_pairs_checked == served.cert_pairs_checked
        and direct.bound_queries_checked == served.bound_queries_checked
        and json.dumps(direct.table5_rows(), sort_keys=True)
        == json.dumps(served.table5_rows(), sort_keys=True)
    )
    return {
        "settings": settings,
        "direct": {
            "unique_plans": direct.unique_plans,
            "reports": len(direct.reports),
        },
        "served": {
            "unique_plans": served.unique_plans,
            "reports": len(served.reports),
        },
        "identical": identical,
    }


def collect_snapshot(quick: bool = False) -> dict:
    """The BENCH_service.json payload."""
    cpus = os.cpu_count() or 1
    throughput = measure_read_throughput(quick=quick)
    isolation = measure_isolation(quick=quick)
    ddl = measure_ddl_and_leakage(quick=quick)
    campaign = measure_campaign_equivalence(quick=quick)
    # The speedup floor is judged only where it is judgeable: four CPUs for
    # the process read pool to actually overlap statements, and the
    # full-size corpus (--quick runs are dominated by connection and replica
    # warm-up).  Correctness flags are never gated.
    scaling_judgeable = cpus >= 4 and not quick
    return {
        "benchmark": "service",
        "quick": quick,
        "cpus": cpus,
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
        },
        "concurrent_clients": throughput["clients"],
        "read_throughput": throughput,
        "isolation": isolation,
        "ddl_and_leakage": ddl,
        "campaign_equivalence": campaign,
        "invariants": {
            "isolation_reads_consistent": isolation["consistent"],
            "ddl_linearizable": ddl["ddl_linearizable"],
            "zero_cross_tenant_leakage": ddl["zero_leakage"],
            "campaign_through_service_identical": campaign["identical"],
            "all_clients_completed": throughput["all_clients_completed"],
            "concurrent_read_speedup_at_least_2_5x": (
                throughput["speedup"] >= 2.5 if scaling_judgeable else True
            ),
            "scaling_gated": not scaling_judgeable,
        },
    }


# -- pytest-benchmark entry points (the driver's --suite mode) ----------------


def test_service_read_roundtrip(benchmark):
    with QueryService() as service:
        with ServiceClient(service.address) as client:
            session = client.open_session("postgresql", tenant="suite")
            _seed_tables(session, 200)

            def roundtrip():
                return session.execute(_READ_QUERIES[0])

            rows = benchmark(roundtrip)
            assert rows


def test_service_isolation_probe():
    snapshot = measure_isolation(quick=True)
    assert snapshot["consistent"]
