"""Shared concurrency primitives for the thread-safe core.

The serving layer (:mod:`repro.service`) runs many sessions against one
process, so the structures they share need two things the standard library
does not provide directly:

* a **readers-writer gate** (:class:`ReadWriteGate`) — read-only statements
  of different sessions run concurrently against one database, while DDL/DML
  statements run exclusively (linearizable writes).  The gate prefers
  writers: once a writer is waiting, new readers queue behind it, so a
  steady stream of reads cannot starve catalog changes.
* an **atomic counter** (:class:`AtomicCounter`) — ``x += 1`` on a plain
  attribute is a read-modify-write race under free threading; the counter
  wraps the increment in a lock so shared statistics stay exact.

Both primitives are deliberately tiny: they are the documented building
blocks the layer invariants refer to, not a general concurrency toolkit.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteGate:
    """A readers-writer lock with writer preference.

    Any number of readers may hold the gate concurrently; a writer holds it
    exclusively.  Writers are preferred: while a writer is waiting, new
    readers block, so writes are never starved by a continuous read stream
    (DDL stays linearizable under heavy SELECT traffic).

    The gate is not reentrant — a thread must not acquire it twice, in
    either mode.  The serving layer acquires it exactly once per statement.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- shared (read) side -----------------------------------------------------

    def acquire_read(self) -> None:
        """Enter the gate in shared mode (blocks while a writer is in/waiting)."""
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Leave shared mode, waking a waiting writer when last out."""
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    # -- exclusive (write) side -------------------------------------------------

    def acquire_write(self) -> None:
        """Enter the gate exclusively (blocks until readers and writers drain)."""
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Leave exclusive mode, waking everyone waiting."""
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    # -- context managers ---------------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with gate.read_locked():`` — shared access for the block."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with gate.write_locked():`` — exclusive access for the block."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection (tests) -----------------------------------------------------

    @property
    def readers(self) -> int:
        """The number of threads currently holding shared access."""
        with self._condition:
            return self._active_readers


class AtomicCounter:
    """An exact counter safe to increment from many threads."""

    __slots__ = ("_lock", "_value")

    def __init__(self, initial: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = initial

    def increment(self, amount: int = 1) -> int:
        """Add *amount* and return the new value."""
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0
