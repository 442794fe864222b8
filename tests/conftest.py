"""Shared fixtures for the test suite.

The corpus-building helpers that used to be duplicated per test file
(``test_pipeline.py`` and ``test_converters.py`` each grew their own
``SETUP`` + dialect factory + source builder) live here once:

* ``hub`` — a fresh, private :class:`ConverterHub` (no shared cache state),
* ``pg_dialect`` / ``pg_raws`` / ``pg_raw`` — a seeded PostgreSQL dialect
  and a deterministic set of raw ``EXPLAIN (FORMAT JSON)`` plan texts,
* ``sample_sources`` — a factory producing ingestion corpora of any size by
  cycling the raw plans (few unique texts, many duplicates — the shape the
  dedup invariants are stated over),
* ``tiny_corpus`` — a small ready-made corpus for quick tests,
* ``relational_dialect`` — a factory for the richer multi-table schema the
  converter integration tests explain against,
* ``dialect_example_plans`` — one converted example :class:`UnifiedPlan`
  per registered DBMS (relational and NoSQL), used by the round-trip
  format matrix.  The plans are shared across tests: treat them as frozen.
* ``dialect_format_example_texts`` / ``dialect_format_example_plans`` —
  one raw example plan text, and its conversion, per ``(dbms, native
  format)`` pair (all 17).

Every test may toggle the numpy kernels: an autouse fixture restores the
ambient state after each one.
"""

import json

import pytest

from repro.converters import ConverterHub, converter_for
from repro.dialects import create_dialect
from repro.engine import arrays
from repro.pipeline import PlanSource
from repro.storage.timeseries_store import Point

#: Schema/data for the pipeline-level corpus (one table is enough).
PIPELINE_SETUP = [
    "CREATE TABLE t0 (c0 INT, c1 INT)",
    "INSERT INTO t0 (c0, c1) VALUES "
    + ", ".join(f"({i}, {i % 5})" for i in range(1, 101)),
]

#: The distinct query shapes the sample corpus cycles through.
PIPELINE_QUERIES = [
    "SELECT c0 FROM t0 WHERE c1 < 3 ORDER BY c0",
] + [f"SELECT c0 FROM t0 WHERE c1 = {value} ORDER BY c0" for value in range(4)]

#: Richer schema/data for the converter integration tests.
RELATIONAL_SETUP = [
    "CREATE TABLE t0 (c0 INT, c1 INT)",
    "CREATE TABLE t1 (c0 INT)",
    "CREATE TABLE t2 (c0 INT PRIMARY KEY)",
    "INSERT INTO t0 (c0, c1) VALUES "
    + ", ".join(f"({i}, {i % 7})" for i in range(1, 201)),
    "INSERT INTO t1 (c0) VALUES " + ", ".join(f"({i})" for i in range(1, 41)),
    "INSERT INTO t2 (c0) VALUES " + ", ".join(f"({i})" for i in range(1, 101)),
]

#: The multi-feature query the converter tests explain (join, group, union).
RELATIONAL_QUERY = (
    "SELECT t1.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 < 100 "
    "GROUP BY t1.c0 UNION SELECT c0 FROM t2 WHERE c0 < 10"
)


def build_pg_dialect():
    """A PostgreSQL dialect seeded with the pipeline schema (module-level so
    subprocess-based tests can rebuild the identical corpus)."""
    dialect = create_dialect("postgresql")
    for statement in PIPELINE_SETUP:
        dialect.execute(statement)
    dialect.analyze_tables()
    return dialect


def build_sample_sources(count=16, dbms="postgresql", raws=None):
    """The canonical sample corpus: *count* sources cycling the sample raw
    plans.  Module-level so subprocess children build the byte-identical
    corpus; the ``sample_sources`` fixture wraps it with cached raws."""
    if raws is None:
        dialect = build_pg_dialect()
        raws = [
            dialect.explain(query, format="json").text
            for query in PIPELINE_QUERIES
        ]
    return [
        PlanSource(dbms, raws[index % len(raws)], "json")
        for index in range(count)
    ]


def build_relational_dialect(name):
    """A relational dialect seeded with the converter-test schema."""
    dialect = create_dialect(name)
    for statement in RELATIONAL_SETUP:
        dialect.execute(statement)
    dialect.analyze_tables()
    return dialect


def build_dialect_example_text(name, format_name=None):
    """One raw example plan text for *name*, covering every DBMS kind.

    *format_name* picks one of the converter's native formats (default: its
    first); MongoDB and InfluxDB have a single one."""
    format_name = format_name or converter_for(name).formats[0]
    if name == "mongodb":
        dialect = create_dialect("mongodb")
        dialect.insert_many("users", [{"_id": i, "age": i} for i in range(20)])
        dialect.create_index("users", "age")
        document = dialect.explain_find(
            "users", {"age": {"$lt": 10}}, sort=[("age", 1)], limit=5
        )
        return json.dumps(document)
    if name == "neo4j":
        dialect = create_dialect("neo4j")
        for i in range(5):
            node_a = dialect.store.create_node(["Item"], {"qid": f"Q{i}"})
            node_b = dialect.store.create_node(["Item"], {"qid": f"R{i}"})
            dialect.store.create_relationship(node_a.node_id, "P31", node_b.node_id)
        return dialect.explain(
            "MATCH (s:Item)-[r:P31]->(o:Item) RETURN s.qid, count(o.qid)",
            format=format_name,
        ).text
    if name == "influxdb":
        dialect = create_dialect("influxdb")
        dialect.write_points(
            "m", [Point(timestamp=i, fields={"v": 1.0}) for i in range(10)]
        )
        return dialect.explain("SELECT v FROM m").text
    dialect = build_relational_dialect(name)
    return dialect.explain(RELATIONAL_QUERY, format=format_name).text


def build_dialect_example_plan(name, format_name=None):
    """:func:`build_dialect_example_text`, converted."""
    format_name = format_name or converter_for(name).formats[0]
    return converter_for(name).convert(
        build_dialect_example_text(name, format_name), format=format_name
    )


@pytest.fixture(autouse=True)
def _restore_kernel_state():
    saved = arrays.numpy_enabled()
    yield
    arrays.set_numpy_enabled(saved)


@pytest.fixture
def hub():
    """A fresh converter hub with a private (empty) conversion cache."""
    return ConverterHub()


@pytest.fixture
def pg_dialect():
    return build_pg_dialect()


@pytest.fixture(scope="session")
def pg_raws():
    """Deterministic raw JSON plan texts for the sample query shapes."""
    dialect = build_pg_dialect()
    return [
        dialect.explain(query, format="json").text for query in PIPELINE_QUERIES
    ]


@pytest.fixture
def pg_raw(pg_raws):
    """One raw JSON plan text (the sorted-filter query)."""
    return pg_raws[0]


@pytest.fixture
def sample_sources(pg_raws):
    """Factory: a corpus of *count* sources cycling the sample raw plans."""

    def factory(count=16, dbms="postgresql"):
        return build_sample_sources(count, dbms, raws=pg_raws)

    return factory


@pytest.fixture
def tiny_corpus(sample_sources):
    """A small ready-made corpus (12 sources over 5 unique raw texts)."""
    return sample_sources(12)


@pytest.fixture
def relational_dialect():
    """Factory: a relational dialect seeded with the converter-test schema."""
    return build_relational_dialect


@pytest.fixture
def relational_query():
    """The multi-feature query the converter tests explain."""
    return RELATIONAL_QUERY


@pytest.fixture(scope="session")
def dialect_example_plans():
    """One example UnifiedPlan per registered DBMS.  Treat as frozen."""
    from repro.converters import available_converters

    return {name: build_dialect_example_plan(name) for name in available_converters()}


@pytest.fixture(scope="session")
def dialect_format_example_texts():
    """One raw example plan text per ``(dbms, native format)``."""
    from repro.converters import available_converters

    return {
        (name, format_name): build_dialect_example_text(name, format_name)
        for name in available_converters()
        for format_name in converter_for(name).formats
    }


@pytest.fixture(scope="session")
def dialect_format_example_plans(dialect_format_example_texts):
    """One example UnifiedPlan per ``(dbms, native format)``.  Treat as frozen."""
    return {
        (name, format_name): converter_for(name).convert(text, format=format_name)
        for (name, format_name), text in dialect_format_example_texts.items()
    }
