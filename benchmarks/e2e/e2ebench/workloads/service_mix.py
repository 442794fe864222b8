"""``service_mix`` — client-observed latency with writes beside reads.

An in-process ``QueryService(read_dispatch="thread")`` holds TPC-H at scale
1.0, loaded over the wire through ``ServiceDialect``.  Two closed-loop
``ServiceClient`` connections in one tenant each send a block of 100
requests per chunk (a session waits for its reply before sending the next,
which is how ``ServiceDialect`` and campaigns through the service use it):
86 parameterised SELECTs (point, range + LIMIT, two-table join, grouped
aggregate, and a count of the scratch table; 16 parameter values per
template so texts repeat), 5 ``explain`` JSON, and 9 writes to a scratch
table as three INSERT → UPDATE → DELETE triples by marker, net zero per
block so every pass starts from the same rows.  Unit = op = one request;
chunk = one block on both connections at once.

Why this workload: service wire, gate, dispatch and GIL contention dominate,
and every write bumps ``Database.version``, invalidating cached plans and
snapshots for the reads that follow — a change that speeds reads by caching
harder and pays for it on invalidation shows here and not in ``tpch_exec``.
``--seed`` draws the parameter values and every block's request order.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchmarking import tpch
from repro.dialects import create_dialect
from repro.service import QueryService, ServiceClient, ServiceDialect, TenantRegistry

from e2ebench import replay
from e2ebench.harness import (
    CheckFailed, Chunk, Lane, PassRecorder, RunData, SetupClock, Workload, all_cpus, scaled,
)
from e2ebench.proxies import prepared_stats
from e2ebench.stats import percentile

DBMS = "postgresql"
TENANT = "bench"
SCALE = 1.0
QUICK_SCALE = 0.2
CLIENTS = 2
BLOCK = 100
BLOCKS = 8
PARAMETERS = 16
INSERT_WIDTH = 8
OPEN_LOOP_RATE = 100.0
OPEN_LOOP_REQUESTS = 150

SCRATCH_DDL = "CREATE TABLE scratch (marker INT, k INT, v INT)"
SCRATCH_COUNT = "SELECT COUNT(*) AS n FROM scratch"

#: (op kind, SQL text).
Request = Tuple[str, str]


class RecordingClient(ServiceClient):
    """A client that can keep the frames it exchanged (traced pass only)."""

    frames: Optional[List[Tuple[dict, dict]]] = None

    def request(self, op: str, **fields):
        response = super().request(op, **fields)
        if self.frames is not None:
            self.frames.append(({"op": op, "id": response.get("id"), **fields}, response))
        return response


def _read_templates(rng: random.Random) -> List[str]:
    """The distinct read statements: four templates x ``PARAMETERS`` values."""
    texts: List[str] = []
    for _ in range(PARAMETERS):
        key = rng.randrange(1, 400)
        day = rng.randrange(8036, 10500)
        nation = rng.randrange(25)
        mode = rng.randrange(1, 8)
        texts += [
            f"SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {key}",
            "SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_shipdate >= {day} AND l_shipdate < {day + 90} "
            "ORDER BY l_extendedprice DESC LIMIT 20",
            "SELECT c_name, o_totalprice FROM customer JOIN orders ON c_custkey = o_custkey "
            f"WHERE c_nationkey = {nation} ORDER BY o_totalprice DESC LIMIT 10",
            "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem "
            f"WHERE l_shipmode <= {mode} GROUP BY l_returnflag ORDER BY l_returnflag",
        ]
    return texts


def _block(rng: random.Random, reads: Sequence[str], marker_base: int) -> List[Request]:
    """One client's block: reads and explains in random order with three
    write triples threaded through in INSERT, UPDATE, DELETE order."""
    requests: List[Request] = [("service.explain", rng.choice(reads)) for _ in range(5)]
    requests += [("service.read", SCRATCH_COUNT) for _ in range(4)]
    requests += [("service.read", rng.choice(reads)) for _ in range(BLOCK - 9 - len(requests))]
    rng.shuffle(requests)
    for triple in range(3):
        marker = marker_base + triple
        values = ", ".join(f"({marker}, {k}, {k})" for k in range(INSERT_WIDTH))
        writes = [
            f"INSERT INTO scratch (marker, k, v) VALUES {values}",
            f"UPDATE scratch SET v = v + 1 WHERE marker = {marker}",
            f"DELETE FROM scratch WHERE marker = {marker}",
        ]
        positions = sorted(rng.sample(range(len(requests) + 1), 3))
        for offset, (position, sql) in enumerate(zip(positions, writes)):
            requests.insert(position + offset, ("service.write", sql))
    return requests


class ServiceMixWorkload(Workload):
    name = "service_mix"
    lanes = CLIENTS

    # -- set-up ---------------------------------------------------------------

    def setup(self, clock: SetupClock) -> None:
        rng = random.Random(f"service_mix:{self.seed}")
        self.data_scale = QUICK_SCALE if self.quick else SCALE
        blocks = 1 if self.quick else scaled(BLOCKS, self.scale)
        self.reads = _read_templates(rng)
        #: blocks[b][c] is client c's request list for block b, the input.
        self.blocks = [
            [_block(rng, self.reads, 1000 * (b * CLIENTS + c)) for c in range(CLIENTS)]
            for b in range(blocks)
        ]
        with clock.step("service.start"):
            self.registry = TenantRegistry()
            self.service = QueryService(read_dispatch="thread", registry=self.registry).start()
            self.clients = [RecordingClient(self.service.address) for _ in range(CLIENTS)]
            self.sessions = [client.open_session(DBMS, tenant=TENANT) for client in self.clients]
        with clock.step("storage.load"):
            tpch.load_into(ServiceDialect(self.sessions[0]), scale=self.data_scale)
            self.sessions[0].execute(SCRATCH_DDL)
        with clock.step("catalog.analyze"):
            self.sessions[0].analyze_tables()
        with clock.step("storage.load_twin"):
            self.twin = create_dialect(DBMS)
            tpch.load_into(self.twin, scale=self.data_scale)
            self.twin.execute(SCRATCH_DDL)
            self.twin.analyze_tables()
        with clock.step("service.reference_answers"):
            # The oracle: the same statements on a direct twin dialect.
            self.answers = {sql: self.twin.execute(sql) for sql in self.reads}
            self.plans = {sql: self.twin.explain(sql, format="json").text for sql in self.reads}
        with clock.step("bench.warm_up"):
            self._run_block(PassRecorder(self.tracer, CLIENTS), self.blocks[0])

    # -- chunks ---------------------------------------------------------------

    def _client_loop(self, lane: Lane, session, requests: Sequence[Request],
                     barrier: threading.Barrier, parent: Optional[int], errors: List[str]) -> None:
        self.tracer.adopt(parent)
        barrier.wait()
        try:
            with self.tracer.span("service.client_lane"):
                for kind, sql in requests:
                    if kind == "service.explain":
                        output = lane.timed(kind, session.explain, sql, format="json")
                        correct = output.text == self.plans[sql]
                    else:
                        rows = lane.timed(kind, session.execute, sql)
                        if kind == "service.write":
                            continue
                        if sql == SCRATCH_COUNT:
                            # Whole INSERTs only: a count between two
                            # multiples of the insert width is a torn read.
                            correct = rows[0]["n"] % INSERT_WIDTH == 0
                        else:
                            correct = rows == self.answers[sql]
                    if not correct:
                        lane.fail_last("wrong_answer")
        except Exception as exc:  # a request that raises ends the lane; the gate reports it
            errors.append(f"{type(exc).__name__}: {exc}")

    def _run_block(self, recorder: PassRecorder, block: Sequence[Sequence[Request]]) -> int:
        barrier = threading.Barrier(CLIENTS)
        errors: List[str] = []
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(recorder.lane(c), self.sessions[c], block[c], barrier,
                      self.tracer.current(), errors),
            )
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise CheckFailed(f"a service request raised: {errors[0]}")
        return self.sessions[0].execute(SCRATCH_COUNT)[0]["n"]

    def chunks(self) -> List[Chunk]:
        return [
            Chunk(f"block:{b}", CLIENTS * BLOCK,
                  lambda rec, block=block: self._run_block(rec, block), digest=str)
            for b, block in enumerate(self.blocks)
        ]

    def begin_pass(self, index: int) -> None:
        frames = [] if self.tracer.enabled else None
        for client in self.clients:
            client.frames = frames
        self.frames = frames

    # -- gates ----------------------------------------------------------------

    def verify(self, passes: Sequence[PassRecorder]) -> None:
        for recorder in passes:
            wrong = [value for value in recorder.outcomes() if value]
            if wrong:
                raise CheckFailed(f"{len(wrong)} requests failed or answered wrongly: {wrong[0]}")
            if any(digest != "0" for digest in recorder.chunk_digests):
                raise CheckFailed("the scratch table did not return to its base row count")
        if self.sessions[0].execute(SCRATCH_COUNT)[0]["n"] != 0:
            raise CheckFailed("the scratch table is not empty after the passes")

    def inputs(self) -> object:
        return self.blocks

    def exact_counts(self) -> Dict[str, int]:
        kinds = [kind for block in self.blocks for client in block for kind, _ in client]
        return {
            "service.reads": kinds.count("service.read"),
            "service.writes": kinds.count("service.write"),
            "service.explains": kinds.count("service.explain"),
        }

    # -- per-layer ------------------------------------------------------------

    def _burst(self, sessions: Sequence, requests: Sequence[Sequence[Request]]) -> float:
        """Requests per second of one closed-loop client per session."""
        def loop(session, items) -> None:
            for kind, sql in items:
                if kind == "service.explain":
                    session.explain(sql, format="json")
                else:
                    session.execute(sql)

        threads = [
            threading.Thread(target=loop, args=(session, items))
            for session, items in zip(sessions, requests)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(len(items) for items in requests) / (time.perf_counter() - started)

    def _open_loop(self, session) -> Dict[str, float]:
        """Reads at a fixed rate on one connection, each timed from the
        moment it was due to be sent, so a stall delays what follows."""
        rng = random.Random(f"service_mix:open_loop:{self.seed}")
        interval = 1.0 / OPEN_LOOP_RATE
        latencies: List[float] = []
        lateness: List[float] = []
        origin = time.perf_counter() + interval
        for index in range(OPEN_LOOP_REQUESTS):
            due = origin + index * interval
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(max(0.0, time.perf_counter() - due) * 1e3)
            session.execute(rng.choice(self.reads))
            latencies.append((time.perf_counter() - due) * 1e3)
        return {
            "service.open_loop_p50_ms": percentile(latencies, 0.50),
            "service.open_loop_p99_ms": percentile(latencies, 0.99),
            "service.open_loop_late_ms": sum(lateness) / len(lateness),
        }

    def _snapshot_rebuild_ms(self) -> float:
        """First read after a write minus the same read repeated, on the twin."""
        sql = self.reads[1]
        samples = []
        for marker in range(5):
            self.twin.execute(f"INSERT INTO scratch (marker, k, v) VALUES ({marker}, 0, 0)")
            started = time.perf_counter()
            self.twin.execute(sql)
            first = time.perf_counter() - started
            started = time.perf_counter()
            self.twin.execute(sql)
            samples.append((first - (time.perf_counter() - started)) * 1e3)
        self.twin.execute("DELETE FROM scratch WHERE marker < 5")
        return percentile(samples, 0.5)

    def layer_metrics(self, run: RunData) -> Dict[str, float]:
        by_kind = run.ms_by_kind()
        reads, writes = by_kind["service.read"], by_kind["service.write"]
        result = {
            "service.read_p50_ms": percentile(reads, 0.50),
            "service.read_p99_ms": percentile(reads, 0.99),
            "service.write_p50_ms": percentile(writes, 0.50),
            "service.write_p99_ms": percentile(writes, 0.99),
            "service.explain_p50_ms": percentile(by_kind["service.explain"], 0.50),
            "storage.load_rows_per_s": (
                sum(tpch.row_counts(self.data_scale).values()) / run.setup_steps["storage.load"]
            ),
            "catalog.analyze_ms": run.setup_steps["catalog.analyze"] * 1e3,
            "storage.snapshot_rebuild_ms": self._snapshot_rebuild_ms(),
        }
        server_dialect = self.registry.catalog(TENANT).dialect(DBMS)
        result.update(prepared_stats([server_dialect]))
        result.update(replay.wire_codec_replay(self.frames or []))

        # What the service adds: the same read statements, in the order
        # client 0 sent them, straight on the twin.
        direct = []
        lane_requests = [request for block in self.blocks for request in block[0]]
        for kind, sql in lane_requests:
            if kind == "service.read" and sql != SCRATCH_COUNT:
                started = time.perf_counter()
                self.twin.execute(sql)
                direct.append((time.perf_counter() - started) * 1e3)
        served = [
            ms for (kind, sql), ms in zip(lane_requests, run.op_ms)
            if kind == "service.read" and sql != SCRATCH_COUNT
        ]
        result["service.overhead_ms"] = percentile(served, 0.5) - percentile(direct, 0.5)

        totals = replay.StageTotals()
        calls = [
            ("explain" if kind == "service.explain" else "execute", sql, "json", None)
            for kind, sql in lane_requests
        ]
        replay.staged_replay(self.twin, calls, totals)
        result.update(totals.metrics())

        two_clients = run.units / sum(run.chunk_s)
        one_client = self._burst(self.sessions[:1], [lane_requests])
        result["service.concurrency_ratio"] = one_client / two_clients
        result.update(self._open_loop(self.sessions[0]))

        read_only = [
            [(kind, sql) for kind, sql in requests
             if kind == "service.read" and sql != SCRATCH_COUNT]
            for requests in self.blocks[0]
        ]
        thread_rate = self._burst(self.sessions, read_only)
        # The thread service is stopped first so the replica workers fork
        # from a process with no other threads running.
        self.close()
        with all_cpus(), QueryService(read_dispatch="process", process_workers=CLIENTS) as service:
            clients = [ServiceClient(service.address) for _ in range(CLIENTS)]
            try:
                sessions = [client.open_session(DBMS, tenant=TENANT) for client in clients]
                tpch.load_into(ServiceDialect(sessions[0]), scale=self.data_scale)
                self._burst(sessions, read_only)  # first statement per worker resyncs
                result["service.process_dispatch_ratio"] = self._burst(sessions, read_only) / thread_rate
            finally:
                for client in clients:
                    client.close()
        return result

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        self.clients = []
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            self.service = None
