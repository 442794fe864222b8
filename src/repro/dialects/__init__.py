"""The nine simulated DBMSs of the case study (Table I).

The six relational ones share one substrate and take one
:class:`EngineConfig` (executor, prepared cache, decorrelation, join
optimization); :func:`create_dialect` validates it from keyword options,
and :meth:`RelationalDialect.reconfigure` changes it on a live dialect.
"""

from typing import Dict, List, Type

from repro.dialects.base import (
    EngineConfig,
    ExplainOutput,
    RawPlan,
    RawPlanNode,
    RelationalDialect,
    SimulatedDBMS,
)
from repro.dialects.influxdb import InfluxDBDialect
from repro.dialects.mongodb import MongoDBDialect
from repro.dialects.mysql import MySQLDialect
from repro.dialects.neo4j import Neo4jDialect
from repro.dialects.postgresql import PostgreSQLDialect
from repro.dialects.sparksql import SparkSQLDialect
from repro.dialects.sqlite import SQLiteDialect
from repro.dialects.sqlserver import SQLServerDialect
from repro.dialects.tidb import TiDBDialect

#: All simulated DBMSs keyed by their lower-case name.
DIALECTS: Dict[str, Type[SimulatedDBMS]] = {
    "influxdb": InfluxDBDialect,
    "mongodb": MongoDBDialect,
    "mysql": MySQLDialect,
    "neo4j": Neo4jDialect,
    "postgresql": PostgreSQLDialect,
    "sqlserver": SQLServerDialect,
    "sqlite": SQLiteDialect,
    "sparksql": SparkSQLDialect,
    "tidb": TiDBDialect,
}

#: The SQL-speaking dialects built on the shared relational substrate.
RELATIONAL_DIALECTS = ("mysql", "postgresql", "sqlite", "sqlserver", "sparksql", "tidb")


def create_dialect(name: str, **options) -> SimulatedDBMS:
    """Instantiate the simulated DBMS called *name*.

    Keyword options are the fields of :class:`EngineConfig` (``executor=``,
    ``prepared_cache=``, ``decorrelate=``, ``optimize_joins=``), validated
    here and handed to a relational dialect as one value; the NoSQL
    dialects take none.
    """
    try:
        dialect_class = DIALECTS[name.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown DBMS {name!r}; available: {sorted(DIALECTS)}") from exc
    if issubclass(dialect_class, RelationalDialect):
        return dialect_class(EngineConfig(**options))
    return dialect_class(**options)


def available_dialects() -> List[str]:
    """Return the names of every simulated DBMS."""
    return sorted(DIALECTS)


__all__ = [
    "EngineConfig",
    "SimulatedDBMS",
    "RelationalDialect",
    "RawPlan",
    "RawPlanNode",
    "ExplainOutput",
    "DIALECTS",
    "RELATIONAL_DIALECTS",
    "create_dialect",
    "available_dialects",
    "InfluxDBDialect",
    "MongoDBDialect",
    "MySQLDialect",
    "Neo4jDialect",
    "PostgreSQLDialect",
    "SparkSQLDialect",
    "SQLiteDialect",
    "SQLServerDialect",
    "TiDBDialect",
]
