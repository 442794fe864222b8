"""Schema objects: data types, columns, tables, and indexes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import CatalogError


class DataType(enum.Enum):
    """Column data types supported by the simulated engines."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"
    DECIMAL = "DECIMAL"

    @classmethod
    def from_sql(cls, type_name: str) -> "DataType":
        """Map a SQL type name onto one of the supported data types."""
        upper = type_name.upper()
        if upper in {"INT", "INTEGER", "BIGINT", "SMALLINT"}:
            return cls.INTEGER
        if upper in {"FLOAT", "REAL", "DOUBLE", "DOUBLE PRECISION"}:
            return cls.FLOAT
        if upper in {"DECIMAL", "NUMERIC"}:
            return cls.DECIMAL
        if upper in {"TEXT", "VARCHAR", "CHAR", "STRING"}:
            return cls.TEXT
        if upper in {"BOOL", "BOOLEAN"}:
            return cls.BOOLEAN
        if upper == "DATE":
            return cls.DATE
        if upper in {"TIMESTAMP", "DATETIME"}:
            return cls.TIMESTAMP
        return cls.TEXT

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type are ordered numbers."""
        return self in _NUMERIC_TYPES

    @property
    def width(self) -> int:
        """A nominal byte width used by cardinality/width estimation."""
        return _TYPE_WIDTHS[self]


_NUMERIC_TYPES = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.DECIMAL})

_TYPE_WIDTHS = {
    DataType.INTEGER: 4,
    DataType.FLOAT: 8,
    DataType.DECIMAL: 8,
    DataType.BOOLEAN: 1,
    DataType.DATE: 4,
    DataType.TIMESTAMP: 8,
    DataType.TEXT: 32,
}


@dataclass
class Column:
    """A table column definition."""

    name: str
    data_type: DataType = DataType.INTEGER
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: object = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")


@dataclass
class Index:
    """A secondary index definition over one or more columns."""

    name: str
    table_name: str
    columns: List[str] = field(default_factory=list)
    unique: bool = False
    primary: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError(f"index {self.name!r} must cover at least one column")

    def leading_column(self) -> str:
        """Return the first (leading) indexed column."""
        return self.columns[0]

    def covers(self, columns: Sequence[str]) -> bool:
        """Return whether the index contains every column in *columns*."""
        return set(columns).issubset(self.columns)


@dataclass
class TableSchema:
    """A table definition: name, columns, and primary key."""

    name: str
    columns: List[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"duplicate column names in table {self.name!r}")

    def column_names(self) -> List[str]:
        """Return the column names in definition order."""
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        """Return the column definition named *name*."""
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """Return whether the table defines a column named *name*."""
        return any(column.name.lower() == name.lower() for column in self.columns)

    def primary_key_columns(self) -> List[str]:
        """Return the primary key column names (possibly empty)."""
        return [column.name for column in self.columns if column.primary_key]

    def row_width(self) -> int:
        """Return the nominal width in bytes of one row."""
        return sum(column.data_type.width for column in self.columns) or 4
