"""The query service: one blocking thread per connection.

One :class:`QueryService` owns a TCP endpoint and a tenant registry.  An
accept thread hands each connection to its own thread, which reads a frame,
classifies the statement, takes the session lock and the database gate,
runs the statement on the ordinary dialect stack and writes the answer — a
request never leaves the thread that read it.  Python threads interleave
rather than overlap on CPU-bound work; ``read_dispatch="process"`` ships
read-only statements to worker processes for genuine multi-core scaling.

Concurrency contract (the "Service layer" invariants in ROADMAP.md):

* **Statement classification** — a request is *read-only* iff every parsed
  statement is a ``SELECT`` or a plain ``EXPLAIN`` (no ``ANALYZE``;
  ``EXPLAIN ANALYZE`` executes the plan and mutates shared runtime
  counters, so it classifies as a write).
* **Gate discipline** — read-only statements hold the database's
  :class:`~repro.core.concurrency.ReadWriteGate` shared; everything else
  holds it exclusively.  The gate prefers writers, so DDL is linearizable
  under any read load.
* **Snapshot isolation** — before executing, a read-only statement pins a
  :class:`~repro.catalog.database.DatabaseView` at the version it will plan
  against; the vectorized executor reads only that view's snapshots.
  Writers replace snapshots, never mutate them, so a pinned view cannot see
  torn state.  (The planner's lazy auto-analyze may bump the version during
  a read — it recomputes statistics from the same rows and is the one
  benign write allowed under the shared gate.)
* **Result cache** — a read whose statements are all ``SELECT`` is
  answered from its tenant dialect's result cache
  (:meth:`~repro.service.tenants.TenantCatalog.results`) when it can be.
  The key is ``(normalized text, EngineConfig, plan freshness of every
  table the statements name)``, taken under the shared gate before the
  statement runs; every row change, DDL statement and ``analyze`` moves
  that freshness, so after a write the entries that read the written table
  can no longer be found, and nothing is ever dropped explicitly — the
  prepared plan cache's argument.  Only a miss pins a view and executes.
  ``prepared_cache=False`` turns the cache off with the plan cache.  EXPLAIN
  of every kind, writes, errors and results over
  :data:`~repro.service.tenants.RESULT_CACHE_MAX_ROWS` rows are never
  stored.  Stored rows are shared between hits and never mutated (the
  engine builds fresh row objects on every execution).
* **Sessions** — statements of one session execute one at a time, in the
  order their connection threads acquire the per-session lock, matching
  single-connection semantics even when the session is addressed from
  several connections.  The lock is held until the statement has really
  returned, so a cancelled statement never overlaps the session's next one.
  Sessions of one tenant share that tenant's dialects (and databases);
  sessions of different tenants share nothing.
* **Cancellation** — ``cancel`` arrives on a second connection, hence on
  another thread, and never takes the session lock.  It is cooperative: it
  flags the session's in-flight statement, which aborts at its next check
  (in each ``delay_ms`` slice, and after acquiring either side of the gate);
  a statement past its last check completes, its result is discarded, and
  the client sees ``StatementCancelled`` then rather than at once.
"""

from __future__ import annotations

import socket
import threading
import time
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.core.concurrency import AtomicCounter
from repro.errors import ParseError
from repro.service import protocol
from repro.service.replica import ProcessReadPool
from repro.service.tenants import RESULT_CACHE_MAX_ROWS, TenantCatalog, TenantRegistry
from repro.sqlparser import ast_nodes as ast


class StatementCancelled(Exception):
    """The statement was cancelled before (or while) it ran."""


class _Session:
    """Server-side session state."""

    def __init__(self, session_id: str, catalog: TenantCatalog, dialect) -> None:
        self.id = session_id
        self.catalog = catalog
        self.dialect = dialect
        #: The dialect's result cache, shared by every session of the tenant.
        self.results = catalog.results(dialect.name)
        #: Serializes the session's statements across connection threads.
        self.lock = threading.Lock()
        #: Set by ``cancel``; checked by the in-flight statement.
        self.cancel_event = threading.Event()
        #: Whether a statement is currently executing (targets for cancel).
        self.inflight = False
        #: Prepared statements: handle -> SQL text.  Plans are cached by the
        #: dialect's prepared-query cache; the handle just pins the text.
        self.prepared: Dict[str, str] = {}
        #: Atomic: two connections may prepare on one session at once.
        self._prepared_counter = AtomicCounter()

    def next_prepared_handle(self) -> str:
        return f"{self.id}/p{self._prepared_counter.increment()}"


def _is_read_only(statements) -> bool:
    """Whether every parsed statement can run under the shared gate."""
    for parsed in statements:
        if isinstance(parsed, ast.SelectStatement):
            continue
        if isinstance(parsed, ast.Explain) and not parsed.analyze:
            # Plain EXPLAIN only plans; EXPLAIN ANALYZE executes (and for
            # DML would mutate), so it falls through to the write side.
            continue
        return False
    return True


def _result_key(dialect, text_key: str, statements):
    """The result-cache key of a read-only script, or ``None`` if uncacheable.

    Only all-``SELECT`` scripts on a dialect whose prepared cache is on are
    cached.  Call under the shared gate: the freshness must be that of the
    rows the statement is about to read.
    """
    if not dialect.prepared.enabled or not all(
        isinstance(parsed, ast.SelectStatement) for parsed in statements
    ):
        return None
    tables = sorted(set().union(*statements.tables))
    return (text_key, dialect.config, dialect.database.plan_freshness(tables))


def _pinned(dialect, work):
    """Run *work* with the dialect's executor reading a freshly pinned view.

    Call under the shared gate.  Concurrent readers of the same dialect race
    on the executor's view slot, but every view pinned under the shared gate
    has identical content (writers are excluded), and a cleared slot just
    falls back to the live current-version snapshot — the same data.
    """
    executor = dialect.executor
    executor.snapshot_view = dialect.database.pin_view()
    try:
        return work()
    finally:
        executor.snapshot_view = None


class QueryService:
    """A multi-tenant query service over the simulated dialect stack."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        read_dispatch: str = "thread",
        process_workers: int = 2,
        registry: Optional[TenantRegistry] = None,
    ) -> None:
        if read_dispatch not in ("thread", "process"):
            raise ValueError("read_dispatch must be 'thread' or 'process'")
        self._host = host
        self._port = port
        self._registry = registry if registry is not None else TenantRegistry()
        self._process_pool: Optional[ProcessReadPool] = None
        if read_dispatch == "process":
            self._process_pool = ProcessReadPool(workers=process_workers)
        self._sessions: Dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = AtomicCounter()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Live connections and the threads serving them.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        #: ``(host, port)`` once the listener is bound.
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "QueryService":
        """Bind the listener (raising if that fails) and serve in the background."""
        if self._accept_thread is not None:
            raise RuntimeError("service already started")
        listener = socket.create_server((self._host, self._port))
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,), name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, join every thread and release the pool (idempotent)."""
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone leaves accept() blocked on Linux, and a blocked
            # accept thread keeps the service and its tenants alive.
            _shutdown(listener)
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        # No connection is added once the accept thread is gone.
        with self._connections_lock:
            connections = list(self._connections.items())
        for sock, _ in connections:
            _shutdown(sock)
        for _, thread in connections:
            thread.join()
        if self._process_pool is not None:
            self._process_pool.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling ------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except ConnectionAbortedError:
                continue
            except OSError:
                return  # stop() shut the listener down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), name="repro-service-conn", daemon=True
            )
            with self._connections_lock:
                self._connections[sock] = thread
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Answer one connection's requests, in order, until it closes.

        A malformed frame (oversized, truncated, undecodable, not an object)
        closes this connection only.
        """
        try:
            while True:
                try:
                    request = protocol.recv_message(sock)
                    if request is None:
                        break
                    response = self._handle_request(request)
                    sock.sendall(protocol.encode_message(response))
                except (protocol.ProtocolError, OSError):
                    break
        finally:
            sock.close()
            with self._connections_lock:
                self._connections.pop(sock, None)

    def _handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        try:
            payload = self._dispatch(request)
            response = {"ok": True}
            response.update(payload)
        except StatementCancelled as exc:
            response = {
                "ok": False,
                "cancelled": True,
                "error": {"type": "StatementCancelled", "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - the wire carries the error
            remote_type = getattr(exc, "remote_type", None) or type(exc).__name__
            response = {
                "ok": False,
                "error": {"type": remote_type, "message": str(exc)},
            }
        if request_id is not None:
            response["id"] = request_id
        return response

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"pong": True}
        if op == "open":
            return self._op_open(request)
        if op == "cancel":
            return self._op_cancel(request)
        session = self._session(request)
        if op == "close":
            with self._sessions_lock:
                self._sessions.pop(session.id, None)
            return {"closed": True}
        if op == "execute":
            return self._op_execute(session, request)
        if op == "execute_prepared":
            handle = request["statement"]
            try:
                sql = session.prepared[handle]
            except KeyError:
                raise KeyError(f"unknown prepared statement {handle!r}")
            return self._op_execute(session, dict(request, sql=sql))
        if op == "prepare":
            # Parse eagerly so a bad statement fails at prepare time, and so
            # the AST is already cached when the statement first executes.
            session.dialect.prepared.parse(request["sql"])
            handle = session.next_prepared_handle()
            session.prepared[handle] = request["sql"]
            return {"statement": handle}
        if op == "explain":
            return self._op_explain(session, request)
        if op == "estimate":
            return self._op_estimate(session, request)
        if op == "analyze":
            self._run_statement(
                session, lambda: session.dialect.analyze_tables(), read_only=False
            )
            return {"analyzed": True}
        if op == "reset":
            self._run_statement(
                session, lambda: session.dialect.reset(), read_only=False
            )
            return {"reset": True}
        if op == "catalog":
            return self._op_catalog(session)
        raise ValueError(f"unknown op {op!r}")

    # -- session management -------------------------------------------------------

    def _op_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant_name = request.get("tenant", "default")
        dbms_name = request["dbms"]
        catalog = self._registry.catalog(tenant_name)
        dialect = catalog.dialect(dbms_name, request.get("options"))
        session_id = f"s{self._session_counter.increment()}"
        session = _Session(session_id, catalog, dialect)
        with self._sessions_lock:
            self._sessions[session_id] = session
        return {"session": session_id, "tenant": tenant_name, "dbms": dialect.name}

    def _session(self, request: Dict[str, Any]) -> _Session:
        session_id = request.get("session")
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session {session_id!r}")
        return session

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Deliberately does NOT take the session lock: cancel must overtake
        # the statement it targets, not queue behind it.
        session = self._session(request)
        delivered = session.inflight
        if delivered:
            session.cancel_event.set()
        return {"delivered": delivered}

    # -- statement execution ------------------------------------------------------

    def _op_execute(self, session: _Session, request: Dict[str, Any]) -> Dict[str, Any]:
        sql = request["sql"]
        delay_ms = int(request.get("delay_ms", 0))
        text_key, statements = session.dialect.prepared.parse(sql)
        read_only = _is_read_only(statements)
        if read_only:
            work = partial(self._read, session, sql, text_key, statements)
        else:
            work = partial(session.dialect.execute, sql)
        rows = self._run_statement(session, work, read_only=read_only, delay_ms=delay_ms)
        return {"rows": rows, "read_only": read_only}

    def _read(self, session: _Session, sql: str, text_key: str, statements):
        """Answer a read-only script under the shared gate: cached, or run."""
        dialect = session.dialect
        key = _result_key(dialect, text_key, statements)
        if key is not None:
            rows = session.results.get(key)
            if rows is not None:
                return rows
        if self._process_pool is not None and not any(
            isinstance(parsed, ast.Explain) for parsed in statements
        ):
            rows = self._execute_on_replica(session, sql)
        else:
            rows = _pinned(dialect, lambda: dialect.execute(sql))
        if key is not None and len(rows) <= RESULT_CACHE_MAX_ROWS:
            session.results.put(key, rows)
        return rows

    def _op_explain(self, session: _Session, request: Dict[str, Any]) -> Dict[str, Any]:
        sql = request["sql"]
        format_name = request.get("format")
        analyze = bool(request.get("analyze", False))
        _, statements = session.dialect.prepared.parse(sql)
        read_only = not analyze and _is_read_only(statements)

        def work():
            output = session.dialect.explain(sql, format=format_name, analyze=analyze)
            return {
                "dbms": output.dbms,
                "format": output.format,
                "text": output.text,
                "query": output.query,
                "bound_violations": [dict(item) for item in output.bound_violations],
            }

        if read_only:
            return self._run_statement(
                session, lambda: _pinned(session.dialect, work), read_only=True
            )
        return self._run_statement(session, work, read_only=False)

    def _op_estimate(self, session: _Session, request: Dict[str, Any]) -> Dict[str, Any]:
        _, statements = session.dialect.prepared.parse(request["sql"])
        if len(statements) != 1:
            raise ParseError(f"expected exactly one statement, found {len(statements)}")

        def work():
            physical = session.dialect.planner.plan_statement(statements[0])
            return {"rows": max(physical.estimated_rows, 1.0)}

        return self._run_statement(session, work, read_only=True)

    def _op_catalog(self, session: _Session) -> Dict[str, Any]:
        def work():
            database = session.dialect.database
            return {
                "tables": sorted(database.table_names()),
                "indexes": list(database.index_names()),
                "version": database.version,
            }

        return self._run_statement(session, work, read_only=True)

    def _run_statement(self, session: _Session, work, read_only: bool, delay_ms: int = 0):
        """Run *work* on this thread under the session and gate contracts."""
        with session.lock:
            if session.cancel_event.is_set():
                session.cancel_event.clear()
                raise StatementCancelled("cancelled before execution")
            session.inflight = True
            try:
                result = self._call_blocking(session, work, read_only, delay_ms)
                if session.cancel_event.is_set():
                    # Past its last check: the work is done (and the lock
                    # was held throughout) but its result is discarded.
                    raise StatementCancelled("cancelled mid-statement")
                return result
            finally:
                session.inflight = False
                session.cancel_event.clear()

    def _call_blocking(self, session: _Session, work, read_only: bool, delay_ms: int):
        if delay_ms:
            # Test hook: simulate a long-running statement in interruptible
            # slices, so cancellation-mid-statement is deterministic.
            deadline = time.monotonic() + delay_ms / 1000.0
            while time.monotonic() < deadline:
                if session.cancel_event.is_set():
                    raise StatementCancelled("cancelled during execution")
                time.sleep(min(0.005, max(deadline - time.monotonic(), 0.0)))
        database = session.dialect.database
        if read_only:
            with database.gate.read_locked():
                if session.cancel_event.is_set():
                    raise StatementCancelled("cancelled during execution")
                return work()
        with database.gate.write_locked():
            if session.cancel_event.is_set():
                raise StatementCancelled("cancelled during execution")
            return work()

    def _execute_on_replica(self, session: _Session, sql: str):
        """Run a read-only SELECT on the process pool (two-trip resync)."""
        database = session.dialect.database
        task = {
            "tenant": session.catalog.name,
            "dbms": session.dialect.name,
            "version": database.version,
            "sql": sql,
            "config": session.dialect.config,
        }
        assert self._process_pool is not None
        result = self._process_pool.run(task)
        if result["status"] == "need_catalog":
            # Still under the shared gate (our caller holds it), so the
            # payload is a consistent capture at the task's version.
            task["payload"] = database.to_payload()
            result = self._process_pool.run(task)
        if result["status"] == "ok":
            return result["rows"]
        error = RuntimeError(result.get("message", "replica failure"))
        error.remote_type = result.get("type", "RuntimeError")
        raise error


def _shutdown(sock: socket.socket) -> None:
    """Wake whichever thread is blocked in ``accept``/``recv`` on *sock*."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed, or the peer went first
