"""Golden digests of every native ``EXPLAIN`` format the dialects write.

The dialects share one tree walk and one writer per format (DOT, JSON
document, ASCII table), each parameterised by the dialect's names.  Those
writers must keep every dialect's output byte for byte, so one SHA-256 per
``(dbms, format)`` pair pins it: 40 random generator queries on two seeded
schemas plus the 22 TPC-H queries at scale 0.1 for each relational dialect,
and the shared example plans (``tests/conftest.py``) for MongoDB, Neo4j and
InfluxDB.  The digests were captured before the writers were merged; a
mismatch means a dialect's native output changed.

The read direction is pinned for TiDB, whose table, text and JSON plans
nest operators three ways: one golden conversion of a table plan three
levels deep, and one structure for all three formats over a generator
corpus.

The unified formats are pinned the same way, one SHA-256 per format over
every plan the converters make of that corpus, captured before the unified
writers shared one value codec and one tree walk.
"""

import hashlib
import json

import pytest

from repro.benchmarking import tpch
from repro.converters import converter_for
from repro.core import formats
from repro.core.compare import structural_fingerprint
from repro.dialects import DIALECTS, RELATIONAL_DIALECTS, create_dialect
from repro.errors import ReproError
from repro.storage.timeseries_store import Point
from repro.testing.generator import RandomQueryGenerator

#: SHA-256 of every output of one pair, joined by NUL, in workload order.
GOLDEN = {('influxdb', 'text'): '33dcf118c087311fa006d2f2f7a12ba21d03653a74a757663b31d1dbd9bb6ab3',
 ('mongodb', 'graph'): '649778ecdb57bd80f82524d8385ba232b6ba04ee7dd8907f1dea14491f332a3e',
 ('mongodb', 'json'): '411fe65d76fc7d4f101b029bdf470e8615ae5aefe85d3467586e53a1273156f2',
 ('mysql', 'graph'): '1828887366ca405a18fc5c09f6618e5c773e578ad23f23615d6b54020b716251',
 ('mysql', 'json'): '82911294e60ee00ebbd8c9ec9d96dd0c4324a2bf1819a6422c8a32b1cea12d4c',
 ('mysql', 'table'): 'b43429272dd14f9c90239a09faabf84944f21616ac31c217bdef60a9632c8a4d',
 ('mysql', 'tree'): '748642db15d665e93b471aa1691b888f35e48a6463dc810402fc3258b9815715',
 ('neo4j', 'graph'): '95454ced6e63bb7984d49611a21e70d79772cf5215d77f346c6b958bf1974fdd',
 ('neo4j', 'json'): '7165d1bd691e9296d3669017c36df2de5187290091d957d91342b013ba5992b2',
 ('neo4j', 'text'): '4018fb715cbf4d90d94e0f492640a80960529263d3217fd5fc6bf77784028072',
 ('postgresql', 'graph'): '135ea9d0ce32443ed1c81632f73a15e85cff4feb266534ae192477d8deef48b6',
 ('postgresql', 'json'): 'fe7327d70e0794c70dbe12f9d7387deb82d138c2554f08df3b9575f98a64e211',
 ('postgresql', 'table'): '5bd4a59d67e7aaa50445504894123d1a207ec3b71a82e7884399872ed71c2f26',
 ('postgresql', 'text'): 'a880a61eff32dd13d0a596ccee392839714a860d5fe3f4545e0d98e80fd85c50',
 ('postgresql', 'xml'): 'a3324b2f8c29b094d22707ecd8e116131cae6051dd96a6de5063aac8a872905a',
 ('postgresql', 'yaml'): '032e8d9cc3947d3225c2d58fc15d1d0d7a1e7c826745eae9fa3342500a9e5625',
 ('sparksql', 'graph'): 'c6e9a690e005637a642a43f9ac94dd479a3eb16e2f16511e96c1ff4c9fbb1c24',
 ('sparksql', 'text'): '6a4b263ea0ca01e517cecacc46ae3738ea9d9cc9d3da0599e09f5e0b0610d015',
 ('sqlite', 'text'): 'faab8ea0957bec57b0b222773e03af54a000f2a834854eeaf7de762e3831fe73',
 ('sqlserver', 'graph'): '9bbf9afae0ecf0d5ffaeebfbaf163c82bc8460c6d5a9fe8d334a6c716633364c',
 ('sqlserver', 'table'): 'da158a38dc362d1b201e096d2e4a7fd91e769fb698a7823a86befcb9822dbccf',
 ('sqlserver', 'text'): '4e016fe433730d2ca58311f1e7f1ed29d15a52f9380fba81633eb481cd3c3744',
 ('sqlserver', 'xml'): 'a80c3c0f105bf93bbad940ecc21d5eae5f22b277feb17351a98dec8e240bdb73',
 ('tidb', 'json'): 'd12451fc783fc9e6174d4a89b43fbcf9aba2734a8fb23533942f3d6dabcd2752',
 ('tidb', 'table'): '66f2825c6f63413d2f117195105dd63d1871b432c6c71c3357c7679574ed85bb',
 ('tidb', 'text'): 'ce89200033217f9ebcbc59df4d451ba63e04ee057a717c03e0b27309af65fced'}


def _relational_workloads(name):
    """``(dialect, queries)`` pairs: two generator schemas and TPC-H."""
    workloads = []
    for seed in (1, 2):
        generator = RandomQueryGenerator(seed)
        dialect = create_dialect(name)
        for statement in generator.schema_statements():
            dialect.execute(statement)
        dialect.analyze_tables()
        workloads.append((dialect, [generator.select_query() for _ in range(20)]))
    dialect = create_dialect(name)
    tpch.load_into(dialect, scale=0.1)
    workloads.append((dialect, [tpch.QUERIES[number] for number in sorted(tpch.QUERIES)]))
    return workloads


def _nosql_workloads():
    """The conftest examples of MongoDB, Neo4j and InfluxDB, as workloads."""
    mongodb = create_dialect("mongodb")
    mongodb.insert_many("users", [{"_id": i, "age": i} for i in range(20)])
    mongodb.create_index("users", "age")
    find = {"find": "users", "filter": {"age": {"$lt": 10}}, "sort": [["age", 1]], "limit": 5}
    neo4j = create_dialect("neo4j")
    for i in range(5):
        node_a = neo4j.store.create_node(["Item"], {"qid": f"Q{i}"})
        node_b = neo4j.store.create_node(["Item"], {"qid": f"R{i}"})
        neo4j.store.create_relationship(node_a.node_id, "P31", node_b.node_id)
    influxdb = create_dialect("influxdb")
    influxdb.write_points("m", [Point(timestamp=i, fields={"v": 1.0}) for i in range(10)])
    return {
        "mongodb": [(mongodb, [json.dumps(find)])],
        "neo4j": [(neo4j, ["MATCH (s:Item)-[r:P31]->(o:Item) RETURN s.qid, count(o.qid)"])],
        "influxdb": [(influxdb, ["SELECT v FROM m"])],
    }


def _explain_all(workloads, format_name):
    texts = []
    for dialect, queries in workloads:
        for query in queries:
            try:
                texts.append(dialect.explain(query, format=format_name).text)
            except ReproError as exc:
                texts.append(f"!{type(exc).__name__}")
    return texts


def native_outputs():
    """``(dbms, format) -> [output text, ...]`` for all 26 pairs."""
    workloads = _nosql_workloads()
    for name in RELATIONAL_DIALECTS:
        workloads[name] = _relational_workloads(name)
    return {
        (name, format_name): _explain_all(workloads[name], format_name)
        for name in sorted(workloads)
        for format_name in DIALECTS[name].plan_formats
    }


def digest(texts):
    return hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def natives():
    return native_outputs()


@pytest.fixture(scope="module")
def digests(natives):
    return {pair: digest(texts) for pair, texts in natives.items()}


def test_every_dialect_format_pair_is_pinned(digests):
    pairs = {(name, fmt) for name, cls in DIALECTS.items() for fmt in cls.plan_formats}
    assert len(pairs) == 26
    assert set(digests) == pairs == set(GOLDEN)


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_native_output_is_byte_identical(pair, digests):
    assert digests[pair] == GOLDEN[pair]


#: SHA-256 of each unified format over every converted native plan.
UNIFIED_GOLDEN = {
    "json": "4fe6b0cf6024b57b500321251fe4620a6745b7032f252a1f594c905cf73507f7",
    "text": "773cf422bbc03efe445079739e71fff91b799b67b72dd26a60e111b2c420b543",
    "table": "2d6d96dec10708637a72bae2527785c38e65e4773dd6d2c0fbdb0647bf4dc913",
    "xml": "6f0f2030bfa685fa0613502d3e22646de732a2b1ef4f8b6a859bdaad005823de",
    "yaml": "df2a172dc98708d78b1387a82020e90981cac283860a2d29914acf5f6fad7033",
    "grammar": "0d1ac4f116eff1f491e9f80839f5cea4ec32df69976b3d28774105b8010a42e4",
}


@pytest.fixture(scope="module")
def converted_plans(natives):
    """The unified plan of every native output its dialect's converter reads."""
    plans = []
    for (name, format_name), texts in sorted(natives.items()):
        converter = converter_for(name)
        if format_name in converter.formats:
            plans.extend(converter.convert(text, format=format_name) for text in texts)
    return plans


def test_unified_corpus_covers_every_converter_format(converted_plans):
    assert len(converted_plans) == 810


@pytest.mark.parametrize("format_name", sorted(UNIFIED_GOLDEN))
def test_unified_output_is_byte_identical(format_name, converted_plans):
    texts = [formats.serialize(plan, format_name) for plan in converted_plans]
    assert digest(texts) == UNIFIED_GOLDEN[format_name]


#: A TiDB table plan three levels deep, as the dialect writes it.
TIDB_TABLE_PLAN = """\
+------------------------+---------+-----------+-------------------+---------------+
| id                     | estRows | task      | access object     | operator info |
+------------------------+---------+-----------+-------------------+---------------+
| Projection_8           | 5.1     | root      |                   | b             |
| └─IndexLookUp_4        | 5.1     | root      |                   |               |
|   ├─IndexRangeScan_5   | 5.1     | cop[tikv] | table:t, index:ia | (a < 5)       |
|   └─Selection_7        | 5.1     | cop[tikv] |                   | (b > 2)       |
|     └─TableRowIDScan_6 | 5.1     | cop[tikv] | table:t           |               |
+------------------------+---------+-----------+-------------------+---------------+"""


def _shape(node):
    return (node.operation.identifier, [_shape(child) for child in node.children])


def test_tidb_table_plan_converts_to_its_golden_tree():
    plan = converter_for("tidb").convert(TIDB_TABLE_PLAN, format="table")
    assert _shape(plan.root) == (
        "Project",
        [("Collect", [("Index Only Scan", []), ("Selection", [("Id Scan", [])])])],
    )
    scan = plan.root.children[0].children[0]
    assert scan.property_value("Operator Info") == "(a < 5)"


@pytest.mark.parametrize("seed", [1, 2])
def test_tidb_formats_convert_to_one_structure(seed):
    generator = RandomQueryGenerator(seed)
    dialect = create_dialect("tidb")
    for statement in generator.schema_statements():
        dialect.execute(statement)
    dialect.analyze_tables()
    converter = converter_for("tidb")
    compared = 0
    for _ in range(60):
        query = generator.select_query()
        try:
            texts = {name: dialect.explain(query, format=name).text
                     for name in ("table", "text", "json")}
        except ReproError:
            continue
        fingerprints = {
            name: structural_fingerprint(converter.convert(text, format=name))
            for name, text in texts.items()
        }
        assert len(set(fingerprints.values())) == 1, (query, fingerprints)
        compared += 1
    assert compared >= 40


def _right_aligned(table):
    """*table* with every cell right-aligned, each column padded differently."""
    return "\n".join(
        "|" + "|".join(cell.strip().rjust(len(cell) + index) + " "
                       for index, cell in enumerate(line.strip("|").split("|"))) + "|"
        if line.startswith("|") else line
        for line in table.splitlines()
    )


@pytest.mark.parametrize("dbms", ["mysql", "sqlserver"])
def test_right_aligned_table_plans_convert_like_left_aligned(dbms, dialect_format_example_texts):
    # A client that right-aligns numbers pads MySQL's id / rows / filtered
    # and SQL Server's NodeId / Parent keys: their cells must still strip.
    text = dialect_format_example_texts[(dbms, "table")]
    converter = converter_for(dbms)
    right = converter.convert(_right_aligned(text), format="table")
    assert right.fingerprint() == converter.convert(text, format="table").fingerprint()
