"""In-memory heap table storage.

Rows are stored as dictionaries keyed by column name.  The heap assigns each
row a stable integer row id, which secondary indexes reference.

For the vectorized executor the heap also serves **columnar snapshots**
(:meth:`HeapTable.column_batch`): parallel per-column value lists plus a
row-id vector.  A snapshot is cached on the table and keyed by the table's
own :attr:`HeapTable.data_version`, a monotonic counter that every row
mutation (``insert`` / ``insert_many`` / ``update`` / ``delete`` /
``truncate``) advances.  Nothing else can make a snapshot stale, so a write
to one table leaves every other table's snapshot — the identical object —
in place, however the mutation reached the heap (through the
:class:`~repro.catalog.database.Database` or directly).

Snapshot columns of tables at or above
:data:`repro.engine.arrays.ARRAY_MIN_ROWS` rows are upgraded to typed
NumPy-backed :class:`~repro.engine.arrays.ArrayColumn` values (when the
dtype-inference rules allow); scans then serve immutable array views, so a
full-table scan is zero-copy and chunking is slice-cheap.  The snapshot
cache additionally keys on :func:`repro.engine.arrays.state_token`, so
toggling the array kernels invalidates snapshots built under the other
representation.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError

Row = Dict[str, object]


class TableSnapshot:
    """A columnar snapshot of a heap table at one of its data versions.

    ``version`` is the :attr:`HeapTable.data_version` the rows were read at
    (never a catalog-wide number).  ``columns`` maps each column name
    (schema order) to a list of values;
    all lists are parallel to ``row_ids``.  Snapshots are shared between
    executions and must be treated as immutable by consumers.
    """

    __slots__ = ("version", "row_ids", "columns", "arrays_token", "_positions")

    def __init__(
        self,
        version: int,
        row_ids: List[int],
        columns: Dict[str, List[object]],
        arrays_token: int = 0,
    ) -> None:
        self.version = version
        self.row_ids = row_ids
        self.columns = columns
        self.arrays_token = arrays_token
        self._positions: Optional[Dict[int, int]] = None

    @property
    def length(self) -> int:
        """The number of rows in the snapshot."""
        return len(self.row_ids)

    def position_of(self, row_id: int) -> int:
        """Return the snapshot position of *row_id* (for index-scan gathers)."""
        positions = self._positions
        if positions is None:
            positions = {row_id: i for i, row_id in enumerate(self.row_ids)}
            self._positions = positions
        return positions[row_id]

    def slice(self, start: int, stop: int) -> "TableSnapshot":
        """A snapshot covering rows ``[start:stop)`` of this one.

        Column slices are zero-copy views for typed array columns and plain
        list slices otherwise, so carving a snapshot into morsels is cheap.
        The slice shares this snapshot's version/token identity and is as
        immutable as its parent.
        """
        return TableSnapshot(
            self.version,
            self.row_ids[start:stop],
            {name: values[start:stop] for name, values in self.columns.items()},
            self.arrays_token,
        )

    def __getstate__(self):
        # Snapshots (and their slices) are shipped to worker processes;
        # the row-id position map is derived state, rebuilt lazily on the
        # other side instead of being serialized.
        return (self.version, self.row_ids, self.columns, self.arrays_token)

    def __setstate__(self, state) -> None:
        self.version, self.row_ids, self.columns, self.arrays_token = state
        self._positions = None


class HeapTable:
    """A row store with stable row ids and tombstone-style deletes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._next_row_id = 1
        # Hoisted per-schema insert metadata: the schema is fixed for the
        # table's lifetime, so the known-column set and the default fill
        # order are computed once, not once per inserted row.
        self._column_names: List[str] = [column.name for column in schema.columns]
        self._known = frozenset(self._column_names)
        self._defaults: List[Tuple[str, object]] = [
            (column.name, column.default) for column in schema.columns
        ]
        #: Monotonic count of row mutations: the snapshot cache's freshness
        #: key.  Advanced *after* the rows change (see :meth:`_mutated`).
        self._data_version = 0
        self._snapshot: Optional[TableSnapshot] = None
        # Serializes snapshot *builds* only: concurrent readers that find a
        # valid cached snapshot never touch the lock (a slot read is atomic),
        # and mutators just clear the slot.  The double-checked build below
        # keeps two threads from constructing duplicate snapshots or
        # publishing a half-initialized one.
        self._snapshot_lock = threading.Lock()

    # -- modification ------------------------------------------------------------

    @property
    def data_version(self) -> int:
        """How many row mutations the heap has seen (monotonic)."""
        return self._data_version

    def _mutated(self) -> None:
        """Record a finished row mutation.

        Runs after the rows changed, so a snapshot build that read the
        counter first and raced this mutation carries the old number and is
        recognisably stale.  The slot is cleared only to release the old
        snapshot early; freshness never depends on it.
        """
        self._data_version += 1
        self._snapshot = None

    def _complete(self, row: Row) -> Row:
        """Validate *row* and fill missing columns with their defaults."""
        if not self._known.issuperset(row):
            unknown = set(row) - self._known
            raise StorageError(
                f"unknown column(s) {sorted(unknown)} for table {self.schema.name!r}"
            )
        return {
            name: row[name] if name in row else default
            for name, default in self._defaults
        }

    def insert(self, row: Row) -> int:
        """Insert *row* and return its row id.

        Missing columns are filled with the column default (or ``None``);
        unknown columns are rejected.
        """
        complete = self._complete(row)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = complete
        self._mutated()
        return row_id

    def insert_many(self, rows: Iterable[Row]) -> List[int]:
        """Insert every row of *rows* in one pass, returning the row ids.

        The batch path validates and completes all rows before touching the
        heap, so a row with unknown columns leaves the heap unchanged
        (per-row :meth:`insert` fails mid-way instead).
        """
        completed = [self._complete(row) for row in rows]
        first_id = self._next_row_id
        self._next_row_id += len(completed)
        heap = self._rows
        for offset, complete in enumerate(completed):
            heap[first_id + offset] = complete
        if completed:
            self._mutated()
        return list(range(first_id, self._next_row_id))

    def update(self, row_id: int, changes: Row) -> None:
        """Apply *changes* to the row identified by *row_id*."""
        if row_id not in self._rows:
            raise StorageError(f"row id {row_id} does not exist in {self.schema.name!r}")
        for column_name in changes:
            if not self.schema.has_column(column_name):
                raise StorageError(
                    f"unknown column {column_name!r} for table {self.schema.name!r}"
                )
        self._rows[row_id].update(changes)
        self._mutated()

    def delete(self, row_id: int) -> None:
        """Delete the row identified by *row_id*."""
        if row_id not in self._rows:
            raise StorageError(f"row id {row_id} does not exist in {self.schema.name!r}")
        del self._rows[row_id]
        self._mutated()

    def truncate(self) -> None:
        """Remove every row (row ids are not reused)."""
        self._rows.clear()
        self._mutated()

    # -- access --------------------------------------------------------------------

    def get(self, row_id: int) -> Row:
        """Return the row identified by *row_id*."""
        try:
            return self._rows[row_id]
        except KeyError as exc:
            raise StorageError(
                f"row id {row_id} does not exist in {self.schema.name!r}"
            ) from exc

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(row_id, row)`` pairs in insertion order."""
        yield from self._rows.items()

    def rows(self) -> List[Row]:
        """Return all rows as a list (insertion order)."""
        return list(self._rows.values())

    def row_ids(self) -> List[int]:
        """Return all live row ids."""
        return list(self._rows.keys())

    @property
    def row_count(self) -> int:
        """The number of live rows."""
        return len(self._rows)

    def column_batch(self) -> TableSnapshot:
        """Return the columnar snapshot of the table's current rows.

        The snapshot is cached on ``(data_version, arrays.state_token())``:
        repeated scans of an unmutated table reuse the identical object, and
        any row mutation — and nothing else — makes the next call rebuild.
        """
        # Imported lazily: repro.engine transitively imports this module.
        from repro.engine import arrays

        token = arrays.state_token()
        snapshot = self._snapshot
        if (
            snapshot is not None
            and snapshot.version == self._data_version
            and snapshot.arrays_token == token
        ):
            return snapshot
        with self._snapshot_lock:
            # The counter is read before the rows: a mutation racing this
            # build can only leave a snapshot labelled with the older number,
            # which the check above rejects.
            version = self._data_version
            # Double-check: another thread may have built the snapshot while
            # this one waited; reuse it so concurrent scans share one object
            # instead of building duplicates.
            snapshot = self._snapshot
            if (
                snapshot is not None
                and snapshot.version == version
                and snapshot.arrays_token == token
            ):
                return snapshot
            rows = list(self._rows.values())
            columns = {
                name: [row[name] for row in rows] for name in self._column_names
            }
            if len(rows) >= arrays.ARRAY_MIN_ROWS:
                # Typed-array upgrade (dtype inference runs once per snapshot);
                # tiny tables keep plain lists — array setup costs more than
                # it saves below this size.
                columns = {
                    name: arrays.make_column(values)
                    for name, values in columns.items()
                }
            snapshot = TableSnapshot(version, list(self._rows.keys()), columns, token)
            # Publish only the fully-built snapshot: readers either see the
            # old slot (or None) or this complete object, never a torn entry.
            self._snapshot = snapshot
        return snapshot

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapTable({self.schema.name!r}, rows={len(self._rows)})"
