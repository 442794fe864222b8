"""Process read workers: genuine multi-core scaling for read-only traffic.

Python threads share one interpreter lock, so CPU-bound statements on a
worker *thread* pool interleave rather than overlap.  When the service is
configured with ``read_dispatch="process"``, read-only ``execute``
statements are shipped to a small pool of worker processes instead.  Each
worker keeps a **replica cache**: per ``(tenant, dbms)`` it holds a database
rebuilt from :meth:`repro.catalog.database.Database.to_payload` at a known
version.  The dispatch protocol is two-trip on a version miss:

1. the service sends ``(tenant, dbms, version, sql)`` and the session
   dialect's :class:`~repro.dialects.base.EngineConfig`, without the catalog;
   a worker whose replica matches the version executes immediately;
2. a worker without a matching replica answers ``need_catalog``; the
   service — still holding the database's read gate, so the capture is
   consistent — re-sends the task with the payload attached, and the worker
   installs the replica before executing.

Workers never write: DDL/DML always executes in the service process under
the exclusive gate, bumping the version, which invalidates every replica
lazily (the next read at the new version triggers a resync).

Results are plain row lists; the executor-equivalence invariants (identical
rows from identical databases, independent of process) are what make the
replica path transparent.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple


def _install_replica(dialect, payload: Dict[str, Any]):
    """Point *dialect* at a database rebuilt from *payload*."""
    from repro.catalog.database import Database
    from repro.engine import create_executor

    database = Database.from_payload(payload)
    dialect.database = database
    dialect.planner.database = database
    dialect.executor = create_executor(dialect.config.executor, database, dialect.planner)
    dialect.prepared.clear()
    return dialect


def _replica_main(task_queue, result_queue) -> None:
    """Worker process loop: execute read-only statements against replicas."""
    from repro.dialects import DIALECTS

    replicas: Dict[Tuple[str, str], Tuple[int, Any]] = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        seq = task["seq"]
        try:
            key = (task["tenant"], task["dbms"])
            cached = replicas.get(key)
            if cached is None or cached[0] != task["version"]:
                payload = task.get("payload")
                if payload is None:
                    result_queue.put({"seq": seq, "status": "need_catalog"})
                    continue
                dialect = (
                    cached[1]
                    if cached is not None
                    else DIALECTS[task["dbms"]](task["config"])
                )
                _install_replica(dialect, payload)
                replicas[key] = (task["version"], dialect)
            dialect = replicas[key][1]
            rows = dialect.execute(task["sql"])
            result_queue.put({"seq": seq, "status": "ok", "rows": rows})
        except Exception as exc:  # noqa: BLE001 - forwarded to the service
            result_queue.put(
                {
                    "seq": seq,
                    "status": "error",
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }
            )


class _ReplicaWorker:
    """One worker process plus its private task/result queues."""

    def __init__(self, context) -> None:
        self.tasks = context.Queue()
        self.results = context.Queue()
        #: One in-flight task per worker: the submitting thread holds this
        #: while waiting for the matching result, so results cannot cross.
        self.lock = threading.Lock()
        self.process = context.Process(
            target=_replica_main, args=(self.tasks, self.results), daemon=True
        )
        self.process.start()


class ProcessReadPool:
    """A fixed pool of replica workers with round-robin dispatch."""

    def __init__(self, workers: int = 2, context: Optional[Any] = None) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        context = context or multiprocessing.get_context()
        self._workers: List[_ReplicaWorker] = [
            _ReplicaWorker(context) for _ in range(workers)
        ]
        self._next = 0
        self._pick_lock = threading.Lock()
        self._seq = 0
        self._closed = False

    def run(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Run one task on a worker, blocking until its result arrives."""
        with self._pick_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            worker = self._workers[self._next % len(self._workers)]
            self._next += 1
            self._seq += 1
            task = dict(task, seq=self._seq)
        with worker.lock:
            worker.tasks.put(task)
            return worker.results.get()

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        with self._pick_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            with worker.lock:
                worker.tasks.put(None)
        for worker in self._workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.terminate()
