"""Wire-protocol, service-surface, lifecycle and hostile-frame tests."""

import gc
import socket
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import (
    FrameDecoder,
    MAX_MESSAGE_BYTES,
    ProtocolError,
    QueryService,
    ServiceClient,
    ServiceError,
    TenantRegistry,
)
from repro.service.protocol import decode_payload, encode_message, recv_message


@pytest.fixture(scope="module")
def service():
    with QueryService() as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(service.address) as connected:
        yield connected


class TestFraming:
    def test_round_trip(self):
        message = {"op": "execute", "sql": "SELECT 1", "id": 7, "values": [1, 2.5, None, True, "x"]}
        frame = encode_message(message)
        decoder = FrameDecoder()
        assert decoder.feed(frame) == [message]

    def test_incremental_feed(self):
        message = {"op": "ping", "id": 1}
        frame = encode_message(message)
        decoder = FrameDecoder()
        for position in range(len(frame) - 1):
            assert decoder.feed(frame[position:position + 1]) == []
        assert decoder.feed(frame[-1:]) == [message]

    def test_multiple_messages_one_feed(self):
        first = {"id": 1}
        second = {"id": 2}
        decoder = FrameDecoder()
        assert decoder.feed(encode_message(first) + encode_message(second)) == [first, second]

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        bad = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError):
            decoder.feed(bad)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")

    def test_payload_nested_past_the_parser_stack_rejected(self):
        nested = b"[" * 5000 + b"]" * 5000
        with pytest.raises(ProtocolError):
            decode_payload(nested)
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(len(nested).to_bytes(4, "big") + nested)

    def test_exact_float_and_int_round_trip(self):
        message = {"f": 0.1 + 0.2, "i": 2 ** 80, "neg": -1.5e-300}
        (decoded,) = FrameDecoder().feed(encode_message(message))
        assert decoded["f"] == message["f"]
        assert decoded["i"] == message["i"]
        assert decoded["neg"] == message["neg"]

    def test_numpy_scalars_serialize_when_available(self):
        numpy = pytest.importorskip("numpy")
        message = {"i": numpy.int64(7), "f": numpy.float64(1.25)}
        (decoded,) = FrameDecoder().feed(encode_message(message))
        assert decoded == {"i": 7, "f": 1.25}


class TestFrameDecoderFuzz:
    """Whatever bytes arrive, in whatever pieces, the decoder returns
    messages or raises ``ProtocolError``: never a ``RecursionError`` or an
    untyped crash."""

    _VALID = encode_message({"op": "execute", "sql": "SELECT 1", "id": 3, "values": [1, 2.5, None]})

    @given(
        edits=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 6), st.binary(max_size=6)), max_size=3),
        nesting=st.integers(0, 4000),
        pieces=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_edited_frames_in_pieces(self, edits, nesting, pieces):
        payload = self._VALID[4:]
        for where, cut, inserted in edits:
            position = int(where * len(payload))
            payload = payload[:position] + inserted + payload[position + cut:]
        payload = b'{"a":' + b"[" * nesting + payload if nesting else payload
        stream = len(payload).to_bytes(4, "big") + payload + self._VALID
        decoder = FrameDecoder()
        position = 0
        try:
            for size in pieces + [len(stream)]:
                for message in decoder.feed(stream[position:position + size]):
                    assert isinstance(message, dict)
                position += size
        except ProtocolError:
            pass

    @given(data=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes(self, data):
        try:
            assert all(isinstance(message, dict) for message in FrameDecoder().feed(data))
        except ProtocolError:
            pass


class TestServiceSurface:
    def test_ping(self, client):
        assert client.ping()

    def test_execute_and_rows(self, client):
        session = client.open_session("postgresql", tenant="proto-exec")
        session.execute("CREATE TABLE t (a INT, b TEXT)")
        session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        rows = session.execute("SELECT a, b FROM t ORDER BY a")
        assert rows == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        session.close()

    def test_explain_passthrough_matches_direct(self, client):
        from repro.dialects import create_dialect

        setup = [
            "CREATE TABLE e (a INT PRIMARY KEY, b INT)",
            "INSERT INTO e VALUES (1, 10), (2, 20)",
        ]
        query = "SELECT * FROM e WHERE a = 1"

        direct = create_dialect("postgresql")
        for statement in setup:
            direct.execute(statement)
        direct.analyze_tables()

        session = client.open_session("postgresql", tenant="proto-explain")
        for statement in setup:
            session.execute(statement)
        session.analyze_tables()

        remote = session.explain(query, format="json")
        local = direct.explain(query, format="json")
        assert remote.text == local.text
        assert remote.dbms == local.dbms
        assert remote.format == local.format
        session.close()

    def test_explain_analyze_reports_bound_violations_field(self, client):
        session = client.open_session("postgresql", tenant="proto-analyze")
        session.execute("CREATE TABLE ba (a INT)")
        session.execute("INSERT INTO ba VALUES (1), (2)")
        output = session.explain("SELECT * FROM ba", analyze=True)
        assert output.bound_violations == ()
        assert "actual" in output.text or output.text
        session.close()

    def test_prepared_statements(self, client):
        session = client.open_session("mysql", tenant="proto-prepared")
        session.execute("CREATE TABLE p (v INT)")
        session.execute("INSERT INTO p VALUES (5)")
        handle = session.prepare("SELECT v FROM p")
        assert session.execute_prepared(handle) == [{"v": 5}]
        session.execute("INSERT INTO p VALUES (6)")
        assert session.execute_prepared(handle) == [{"v": 5}, {"v": 6}]
        session.close()

    def test_prepare_rejects_bad_sql(self, client):
        session = client.open_session("postgresql", tenant="proto-badsql")
        with pytest.raises(ServiceError):
            session.prepare("SELEC nonsense FROM")
        session.close()

    def test_errors_carry_remote_type(self, client):
        session = client.open_session("postgresql", tenant="proto-errors")
        with pytest.raises(ServiceError) as excinfo:
            session.execute("SELECT * FROM does_not_exist")
        assert excinfo.value.remote_type
        assert "does_not_exist" in excinfo.value.remote_message
        session.close()

    def test_unknown_session_rejected(self, client):
        with pytest.raises(ServiceError):
            client.request("execute", session="nope", sql="SELECT 1")

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ServiceError):
            client.request("frobnicate")

    def test_session_addressable_across_connections(self, service, client):
        session = client.open_session("postgresql", tenant="proto-cross")
        session.execute("CREATE TABLE cx (a INT)")
        session.execute("INSERT INTO cx VALUES (42)")
        with ServiceClient(service.address) as other:
            rows = other.request("execute", session=session.id, sql="SELECT a FROM cx")["rows"]
        assert rows == [{"a": 42}]
        session.close()

    def test_estimate_matches_local_planner(self, client):
        from repro.dialects import create_dialect
        from repro.sqlparser.parser import parse_one

        setup = [
            "CREATE TABLE est (a INT, b INT)",
            "INSERT INTO est VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
        ]
        query = "SELECT * FROM est WHERE a > 2"

        direct = create_dialect("postgresql")
        for statement in setup:
            direct.execute(statement)
        direct.analyze_tables()
        local = max(direct.planner.plan_statement(parse_one(query)).estimated_rows, 1.0)

        session = client.open_session("postgresql", tenant="proto-estimate")
        for statement in setup:
            session.execute(statement)
        session.analyze_tables()
        assert session.estimate(query) == local
        session.close()


def _threads_since(before, settle=0.0):
    """Threads alive now that were not in *before* (a ``threading.enumerate()``
    snapshot), polling up to *settle* seconds for them to finish.

    A set difference rather than ``active_count()`` arithmetic: connection
    threads of the module-scoped service left by earlier tests may still be
    winding down, and must not count either way.
    """
    deadline = time.monotonic() + settle
    while True:
        extra = set(threading.enumerate()) - before
        if not extra or time.monotonic() >= deadline:
            return extra
        time.sleep(0.005)


class TestServiceLifecycle:
    def test_stop_with_idle_client_releases_threads_port_and_tenants(self):
        before = set(threading.enumerate())
        registry = TenantRegistry()
        service = QueryService(registry=registry).start()
        address = service.address
        idle = ServiceClient(address)
        session = idle.open_session("postgresql", tenant="lifecycle")
        session.execute("CREATE TABLE life (a INT)")
        database = weakref.ref(registry.catalog("lifecycle").dialect("postgresql").database)
        assert len(_threads_since(before)) == 2  # accept + one connection

        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 1.0
        # stop() joined every thread it started: no polling needed.
        assert not _threads_since(before)
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0)
        with pytest.raises((ServiceError, OSError)):
            idle.ping()
        idle.close()

        service.stop()  # a second stop is a no-op

        assert database() is not None
        del service, registry, session, idle
        gc.collect()
        assert database() is None

    def test_bind_failure_raises_from_start_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        with socket.create_server(("127.0.0.1", 0)) as occupied:
            port = occupied.getsockname()[1]
            service = QueryService(port=port)
            with pytest.raises(OSError):
                service.start()
        assert service.address is None
        assert not _threads_since(before)
        service.stop()  # never started: still a no-op

    def test_stop_waits_for_an_inflight_statement(self):
        with QueryService() as service:
            client = ServiceClient(service.address)
            session = client.open_session("postgresql", tenant="lifecycle-busy")
            session.execute("CREATE TABLE busy (a INT)")
            outcome = {}

            def run():
                try:
                    outcome["rows"] = session.execute("SELECT a FROM busy", delay_ms=150)
                except (ServiceError, OSError) as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.05)
        # The context manager's stop() joined the connection thread, which
        # first let the statement return; the client gets its answer or a
        # closed connection, never a hang.
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert outcome
        client.close()


class TestHostileFrames:
    """Malformed input closes the offending connection and nothing else."""

    _PING = encode_message({"op": "ping", "id": 1})
    HOSTILE = {
        "oversized-length-prefix": (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big") + b"x",
        "not-utf8": (2).to_bytes(4, "big") + b"\xff\xfe",
        "not-json": (5).to_bytes(4, "big") + b"{nope",
        "json-array": (9).to_bytes(4, "big") + b"[1, 2, 3]",
        "nested-past-the-parser-stack": (10000).to_bytes(4, "big") + b"[" * 5000 + b"]" * 5000,
        "cut-off-mid-payload": _PING[:-3],
    }

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_malformed_frame_closes_that_connection_only(self, service, name, monkeypatch):
        crashes = []  # exceptions that escaped a connection thread
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        with ServiceClient(service.address) as bystander:  # connected before the attack
            session = bystander.open_session("postgresql", tenant="hostile")
            session.execute("CREATE TABLE IF NOT EXISTS h (a INT)")
            before = set(threading.enumerate())

            raw = socket.create_connection(service.address, timeout=2.0)
            raw.sendall(self.HOSTILE[name])
            if name != "cut-off-mid-payload":
                # The server closes its end: EOF (or a reset), never a frame.
                # The truncated frame skips this and closes abruptly instead.
                try:
                    assert raw.recv(1) == b""
                except ConnectionError:
                    pass
            raw.close()

            assert bystander.ping()
            assert session.execute("SELECT COUNT(*) AS n FROM h") == [{"n": 0}]
            # No connection thread outlives its socket.
            assert not _threads_since(before, settle=2.0)
        assert crashes == []

    def test_well_formed_frame_after_connect_still_answers(self, service):
        # The control for the cases above: the same raw-socket path, valid bytes.
        with socket.create_connection(service.address) as raw:
            raw.sendall(encode_message({"op": "ping", "id": 9}))
            assert recv_message(raw) == {"ok": True, "pong": True, "id": 9}


class TestTenantRegistry:
    def test_explicit_registries_are_independent(self):
        registry_a = TenantRegistry()
        registry_b = TenantRegistry()
        catalog_a = registry_a.catalog("acme")
        catalog_b = registry_b.catalog("acme")
        assert catalog_a is not catalog_b
        assert catalog_a.dialect("postgresql") is not catalog_b.dialect("postgresql")

    def test_sessions_of_one_tenant_share_a_dialect(self):
        registry = TenantRegistry()
        catalog = registry.catalog("acme")
        assert catalog.dialect("postgresql") is catalog.dialect("postgresql")
        assert registry.catalog("acme") is catalog

    def test_concurrent_dialect_creation_yields_one_instance(self):
        registry = TenantRegistry()
        catalog = registry.catalog("racing")
        seen = []
        barrier = threading.Barrier(8)

        def open_dialect():
            barrier.wait()
            seen.append(catalog.dialect("mysql"))

        threads = [threading.Thread(target=open_dialect) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(dialect) for dialect in seen}) == 1
