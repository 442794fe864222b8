"""The relational database instance: schemas, heap tables, indexes, statistics.

A :class:`Database` is the storage-and-catalog substrate shared by the
simulated relational DBMSs.  Each dialect owns its own ``Database`` instance,
so mutations issued against one simulated DBMS do not affect another — exactly
as with separate real installations.

Since the serving layer (PR 9) one database may be read by many sessions at
once.  The concurrency contract lives here:

* :attr:`Database.gate` is a writer-preferring readers-writer gate.  The
  service runs read-only statements under shared access and DDL/DML under
  exclusive access, which makes writes linearizable without serializing
  reads against each other.
* :meth:`Database.bump_version` is lock-guarded, so the version is a true
  monotonic counter even when mutators race (they should not, under the
  gate — the lock makes the invariant independent of caller discipline).
* :meth:`Database.pin_view` captures a :class:`DatabaseView` — an immutable
  ``{table name → TableSnapshot}`` mapping at one version.  A statement that
  pinned a view reads only those snapshots; later writers replace the
  written table's cached snapshot rather than mutating it, so the pinned
  view stays valid by reference-holding (MVCC without a retention policy),
  and the tables a write did not touch keep serving the identical snapshot
  object to every later view.

Freshness is per table.  :attr:`Database.version` is the one global counter
every mutation advances, but no cache keys on it (its readers are the
process-replica handshake, the ``catalog`` wire op and
:attr:`DatabaseView.version`).  What a cached plan may depend on is recorded
as *which value the counter had* when that input last changed:

==============================================  =========================
mutation                                        advances
==============================================  =========================
create / drop table, create / drop index,       the catalog epoch
``analyze()`` of the whole database             (every plan misses)
``insert_rows`` / ``update_rows`` /             the written table's
``delete_rows`` (≥ 1 row), ``analyze(table)``   planning version (plans
— the dialects' post-DML auto-analyze and the   naming that table miss)
lazy one in :meth:`Database.statistics` too
==============================================  =========================

:meth:`Database.plan_freshness` folds the two into the plan-cache key.
Because both are draws from the same monotonic counter, a value is never
reused — not by another table, not after drop + recreate.  Row contents are
the heap's business (:attr:`~repro.storage.table.HeapTable.data_version`
keys the snapshots).  Add the bump with the mutation, never rely on callers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, DataType, Index, TableSchema
from repro.catalog.statistics import TableStatistics, collect_table_statistics
from repro.core.concurrency import ReadWriteGate
from repro.errors import CatalogError
from repro.storage.index import OrderedIndex
from repro.storage.table import HeapTable, Row, TableSnapshot


class DatabaseView:
    """An immutable read view of a database pinned at one catalog version.

    The view holds direct references to the :class:`TableSnapshot` objects
    that existed at pin time; snapshots are never mutated in place, so the
    view keeps serving version-consistent data even while writers advance
    the live database underneath it.  ``version`` is the global
    :attr:`Database.version` at pin time; each snapshot carries its own
    table's data version.
    """

    __slots__ = ("version", "_snapshots")

    def __init__(self, version: int, snapshots: Dict[str, TableSnapshot]) -> None:
        self.version = version
        self._snapshots = snapshots

    def get(self, table_name: str) -> Optional[TableSnapshot]:
        """Return the pinned snapshot for *table_name* (``None`` if absent)."""
        return self._snapshots.get(table_name.lower())

    def table_names(self) -> List[str]:
        """The lower-cased names of every table captured in the view."""
        return list(self._snapshots)

    def __contains__(self, table_name: str) -> bool:
        return table_name.lower() in self._snapshots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseView(version={self.version}, tables={len(self._snapshots)})"


class Database:
    """An in-memory database: tables, indexes, and optimizer statistics."""

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self._tables: Dict[str, HeapTable] = {}
        self._indexes: Dict[str, OrderedIndex] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        #: Monotonic global version.  Every mutation that can change how a
        #: statement plans — DDL, DML (row counts feed the cost model and the
        #: proven size bounds), statistics collection — advances it, and
        #: records the new value as either the catalog epoch or one table's
        #: planning version (module docstring).  Plans are keyed on those
        #: two, never on this number.
        self._version = 0
        self._epoch = 0
        self._table_versions: Dict[str, int] = {}
        self._version_lock = threading.Lock()
        #: Readers-writer gate for the serving layer: read-only statements
        #: hold it shared, DDL/DML hold it exclusively.  Embedded (direct
        #: dialect) use never touches it, so single-threaded callers pay
        #: nothing.
        self.gate = ReadWriteGate()

    @property
    def version(self) -> int:
        """The current catalog/statistics version (see ``__init__``)."""
        return self._version

    def bump_version(self, table_name: Optional[str] = None) -> int:
        """Advance the global version and record what the mutation touched.

        With *table_name*, only that table's planning version moves (cached
        plans naming other tables stay reachable); without, the catalog
        epoch moves and every cached plan misses.

        Guarded by a lock: ``+= 1`` on a plain attribute is a
        read-modify-write race, and the version doubles as the snapshot-
        isolation timestamp, so two racing bumps must never collapse into
        one.
        """
        with self._version_lock:
            self._version += 1
            if table_name is None:
                self._epoch = self._version
            else:
                self._table_versions[table_name.lower()] = self._version
            return self._version

    def plan_freshness(self, table_keys: Sequence[str]) -> Tuple[int, ...]:
        """The freshness part of a plan-cache key for a statement naming *table_keys*.

        ``(catalog epoch, planning version of each table)``; *table_keys*
        are lower-cased names in a fixed order.  A name with no table behind
        it reads 0 — creating the table moves the epoch.
        """
        versions = self._table_versions
        return (self._epoch, *[versions.get(key, 0) for key in table_keys])

    def pin_view(self) -> DatabaseView:
        """Capture a :class:`DatabaseView` of every table at the current version.

        Intended to be called while holding :attr:`gate` in shared mode (or
        from a single-threaded caller): no table can change mid-capture, so
        all snapshots in the view belong to one version.  Snapshot builds
        are cached per table on the table's own data version, so a pin
        rebuilds only the tables written since the last one and shares
        every other :class:`TableSnapshot` object with earlier views.
        """
        version = self._version
        snapshots = {key: table.column_batch() for key, table in self._tables.items()}
        return DatabaseView(version, snapshots)

    # -- DDL ------------------------------------------------------------------------

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> None:
        """Create a table; primary-key columns get an implicit unique index."""
        key = schema.name.lower()
        if key in self._tables:
            if if_not_exists:
                return
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = HeapTable(schema)
        primary_columns = schema.primary_key_columns()
        if primary_columns:
            definition = Index(
                name=f"{schema.name}_pkey",
                table_name=schema.name,
                columns=primary_columns,
                unique=True,
                primary=True,
            )
            self._indexes[definition.name.lower()] = OrderedIndex(definition)
        self._statistics[key] = TableStatistics(table=schema.name)
        self.bump_version()

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a table together with its indexes and statistics."""
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self._statistics.pop(key, None)
        self._table_versions.pop(key, None)
        for index_name in [
            index_name
            for index_name, index in self._indexes.items()
            if index.definition.table_name.lower() == key
        ]:
            del self._indexes[index_name]
        self.bump_version()

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: Sequence[str],
        unique: bool = False,
    ) -> Index:
        """Create a secondary index and populate it from existing rows."""
        if name.lower() in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        for column in columns:
            if not table.schema.has_column(column):
                raise CatalogError(
                    f"cannot index unknown column {column!r} of table {table_name!r}"
                )
        definition = Index(name=name, table_name=table.schema.name, columns=list(columns), unique=unique)
        ordered = OrderedIndex(definition)
        for row_id, row in table.scan():
            ordered.insert(tuple(row[column] for column in definition.columns), row_id)
        self._indexes[name.lower()] = ordered
        self.bump_version()
        return definition

    def drop_index(self, name: str) -> None:
        """Drop a secondary index."""
        if name.lower() not in self._indexes:
            raise CatalogError(f"index {name!r} does not exist")
        del self._indexes[name.lower()]
        self.bump_version()

    # -- access -----------------------------------------------------------------------

    def table(self, name: str) -> HeapTable:
        """Return the heap table named *name*."""
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def has_table(self, name: str) -> bool:
        """Return whether a table named *name* exists."""
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        """Return the names of all tables."""
        return [table.schema.name for table in self._tables.values()]

    def schema(self, name: str) -> TableSchema:
        """Return the schema of the table named *name*."""
        return self.table(name).schema

    def indexes_for(self, table_name: str) -> List[OrderedIndex]:
        """Return every index defined on *table_name*."""
        return [
            index
            for index in self._indexes.values()
            if index.definition.table_name.lower() == table_name.lower()
        ]

    def index(self, name: str) -> OrderedIndex:
        """Return the index named *name*."""
        try:
            return self._indexes[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"index {name!r} does not exist") from exc

    def index_names(self) -> List[str]:
        """Return the names of all indexes."""
        return [index.definition.name for index in self._indexes.values()]

    # -- DML -------------------------------------------------------------------------

    @contextmanager
    def _writing(self, table_name: str) -> Iterator[HeapTable]:
        """Yield *table_name*'s heap; advance its planning version if rows changed.

        The heap's own data version decides, so the bump can neither be
        forgotten by a caller nor skipped by a statement that fails half-way
        (a unique index rejecting a key mid-batch leaves earlier rows in).
        """
        table = self.table(table_name)
        before = table.data_version
        try:
            yield table
        finally:
            if table.data_version != before:
                self.bump_version(table_name)

    def insert_rows(self, table_name: str, rows: Iterable[Row]) -> int:
        """Insert rows into *table_name*, maintaining its indexes.

        Unindexed tables take the whole batch in one heap pass
        (:meth:`~repro.storage.table.HeapTable.insert_many`); indexed tables
        interleave heap and index inserts per row, preserving the historical
        partial state when a unique index rejects a key mid-batch.  Either
        way the table's planning version advances exactly once per
        statement, and no other table's does.
        """
        indexes = self.indexes_for(table_name)
        with self._writing(table_name) as table:
            if not indexes:
                return len(table.insert_many(rows))
            count = 0
            for row in rows:
                row_id = table.insert(row)
                stored = table.get(row_id)
                for index in indexes:
                    key = tuple(stored[column] for column in index.definition.columns)
                    index.insert(key, row_id)
                count += 1
            return count

    def update_rows(self, table_name: str, row_ids: Sequence[int], changes_per_row: Sequence[Row]) -> int:
        """Apply per-row changes, maintaining indexes."""
        indexes = self.indexes_for(table_name)
        with self._writing(table_name) as table:
            for row_id, changes in zip(row_ids, changes_per_row):
                before = dict(table.get(row_id))
                table.update(row_id, changes)
                after = table.get(row_id)
                for index in indexes:
                    columns = index.definition.columns
                    old_key = tuple(before[column] for column in columns)
                    new_key = tuple(after[column] for column in columns)
                    if old_key != new_key:
                        index.remove(old_key, row_id)
                        index.insert(new_key, row_id)
        return len(row_ids)

    def delete_rows(self, table_name: str, row_ids: Sequence[int]) -> int:
        """Delete rows by id, maintaining indexes."""
        indexes = self.indexes_for(table_name)
        with self._writing(table_name) as table:
            for row_id in row_ids:
                row = dict(table.get(row_id))
                for index in indexes:
                    key = tuple(row[column] for column in index.definition.columns)
                    index.remove(key, row_id)
                table.delete(row_id)
        return len(row_ids)

    # -- statistics ---------------------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> None:
        """Collect statistics for one table, or for every table.

        One table's statistics feed only the plans that name it, so
        ``analyze(table)`` advances that table's planning version; the
        whole-database form advances the catalog epoch.
        """
        names = [table_name] if table_name else self.table_names()
        for name in names:
            table = self.table(name)
            numeric_columns = [
                column.name
                for column in table.schema.columns
                if column.data_type.is_numeric
            ]
            self._statistics[name.lower()] = collect_table_statistics(
                table.schema.name,
                table.rows(),
                numeric_columns,
                table.schema.column_names(),
            )
        self.bump_version(table_name or None)

    def statistics(self, table_name: str) -> TableStatistics:
        """Return the most recently collected statistics for *table_name*.

        Statistics may be stale (as in real systems); callers that need fresh
        numbers should call :meth:`analyze` first.
        """
        key = table_name.lower()
        if key not in self._statistics:
            raise CatalogError(f"no statistics for table {table_name!r}")
        stats = self._statistics[key]
        if stats.row_count == 0 and self.table(table_name).row_count > 0:
            # Real systems auto-analyze small/new tables lazily; emulate that.
            self.analyze(table_name)
            stats = self._statistics[key]
        return stats

    def copy_schema_to(self, other: "Database") -> None:
        """Recreate this database's tables and indexes (no rows) in *other*."""
        for table in self._tables.values():
            other.create_table(
                TableSchema(
                    name=table.schema.name,
                    columns=[
                        Column(
                            name=column.name,
                            data_type=column.data_type,
                            nullable=column.nullable,
                            primary_key=column.primary_key,
                            unique=column.unique,
                            default=column.default,
                        )
                        for column in table.schema.columns
                    ],
                )
            )
        for index in self._indexes.values():
            if not index.definition.primary:
                other.create_index(
                    index.definition.name,
                    index.definition.table_name,
                    index.definition.columns,
                    index.definition.unique,
                )

    def clone(self) -> "Database":
        """Return a deep copy of the database (schema, rows, indexes)."""
        replica = Database(self.name)
        self.copy_schema_to(replica)
        for table in self._tables.values():
            replica.insert_rows(table.schema.name, [dict(row) for row in table.rows()])
        replica.analyze()
        return replica

    # -- serialization (process replicas) ---------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Return a picklable description of the database at its current version.

        The service's process-dispatch mode ships this to read workers, which
        rebuild an equivalent database with :meth:`from_payload`.  Only
        catalog-visible state travels: schemas, rows, and secondary indexes
        (primary indexes and statistics are re-derived on the other side).
        """
        tables = []
        for table in self._tables.values():
            schema = table.schema
            tables.append(
                {
                    "name": schema.name,
                    "columns": [
                        {
                            "name": column.name,
                            "data_type": column.data_type.name,
                            "nullable": column.nullable,
                            "primary_key": column.primary_key,
                            "unique": column.unique,
                            "default": column.default,
                        }
                        for column in schema.columns
                    ],
                    "rows": [dict(row) for row in table.rows()],
                }
            )
        indexes = [
            {
                "name": index.definition.name,
                "table": index.definition.table_name,
                "columns": list(index.definition.columns),
                "unique": index.definition.unique,
            }
            for index in self._indexes.values()
            if not index.definition.primary
        ]
        return {
            "name": self.name,
            "version": self._version,
            "tables": tables,
            "indexes": indexes,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Database":
        """Rebuild a database from :meth:`to_payload` output.

        The replica's tables, rows, indexes, and statistics match the source;
        its :attr:`version` is forced to the payload's version, which is
        what the replica handshake compares.
        """
        database = cls(payload["name"])
        for spec in payload["tables"]:
            database.create_table(
                TableSchema(
                    name=spec["name"],
                    columns=[
                        Column(
                            name=column["name"],
                            data_type=DataType[column["data_type"]],
                            nullable=column["nullable"],
                            primary_key=column["primary_key"],
                            unique=column["unique"],
                            default=column["default"],
                        )
                        for column in spec["columns"]
                    ],
                )
            )
        for spec in payload["indexes"]:
            database.create_index(
                spec["name"], spec["table"], spec["columns"], spec["unique"]
            )
        for spec in payload["tables"]:
            if spec["rows"]:
                database.insert_rows(spec["name"], [dict(row) for row in spec["rows"]])
        database.analyze()
        database._version = payload["version"]
        return database
