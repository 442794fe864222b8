"""``dumps_indented`` is ``json.dumps(obj, indent=2)``, byte for byte.

Every EXPLAIN JSON renderer (postgresql, mysql, tidb, neo4j, mongodb) and the
unified plan's own JSON format go through
:func:`repro.core.formats.json_emit.dumps_indented`.  Two oracles pin it to
the standard library's pure-Python indented encoder, which is what those
renderers called before:

* hypothesis over JSON-like values, including the corners ``json`` handles
  specially (non-``str`` keys, NaN / infinities / ``-0.0``, subclasses,
  non-ASCII, unsupported objects);
* a golden sweep that re-renders every document each dialect emits, over
  the generator corpus and TPC-H, with the previous renderer
  (:func:`legacy_dumps`) and requires the same text.
"""

import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarking import tpch
from repro.converters import converter_for
from repro.core import formats
from repro.core.formats import json_emit, json_format
from repro.core.formats.json_emit import dumps_indented
from repro.dialects import create_dialect, mongodb, mysql, neo4j, postgresql, tidb
from repro.errors import ReproError
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator


def legacy_dumps(obj, default=None):
    """The renderer every EXPLAIN JSON format used before the emitter."""
    return json.dumps(obj, indent=2, default=default)


def assert_identical(obj, default=None):
    try:
        expected = ("ok", legacy_dumps(obj, default=default))
    except (TypeError, ValueError) as error:
        expected = ("error", type(error))
    try:
        actual = ("ok", dumps_indented(obj, default=default))
    except (TypeError, ValueError) as error:
        actual = ("error", type(error))
    assert actual == expected, obj


# --------------------------------------------------------------- hypothesis


class Text(str):
    pass


class Integer(int):
    pass


class Real(float):
    pass


class Colour(enum.IntEnum):
    RED = 1


class Opaque:
    def __repr__(self):
        return "Opaque()"


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 1e308, 0.1]
)
_text = st.text(
    st.characters(codec="utf-8") | st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", " ", "é", "😀"]),
    max_size=8,
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _floats
    | _text
    | _text.map(Text)
    | st.integers().map(Integer)
    | st.floats(allow_nan=False).map(Real)
    | st.just(Colour.RED)
)
_keys = st.none() | st.booleans() | st.integers() | _floats | _text | st.integers().map(Integer)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_json_like_values_encode_identically(value):
    assert_identical(value)


@settings(max_examples=100, deadline=None)
@given(_values)
def test_values_inside_containers_encode_identically(value):
    assert_identical([value, {"k": value}, (value,)])


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        [{}, [], ()],
        {"a": {}, "b": [], "c": {"d": ()}},
        {1: "int", 2.5: "float", True: "bool", False: "no", None: "null"},
        {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4},
        [math.nan, math.inf, -math.inf, -0.0, 0.0],
        "plain",
        "ünïcødé \x00 \n \t   😀",
        2**200,
        -(2**200),
        [Integer(3), Real(1.5), Text("s"), Colour.RED, True],
        {Text("k"): Integer(7), Integer(8): Real(2.0)},
    ],
)
def test_corner_values_encode_identically(value):
    assert_identical(value)


@pytest.mark.parametrize(
    "value",
    [Opaque(), [1, Opaque()], {"k": {1, 2}}, {(1, 2): "tuple key"}, b"bytes", 1j],
)
def test_unsupported_objects_raise_type_error(value):
    with pytest.raises(TypeError):
        legacy_dumps(value)
    with pytest.raises(TypeError):
        dumps_indented(value)


def test_default_replaces_unsupported_objects():
    document = {"when": Opaque(), "nested": [Opaque(), {"s": {3}}]}
    assert dumps_indented(document, default=repr) == legacy_dumps(document, default=repr)
    assert dumps_indented(document, default=str) == legacy_dumps(document, default=str)
    # *default* may return a container, which is encoded in place.
    listing = lambda value: [repr(value), {"kind": type(value).__name__}]
    assert dumps_indented(document, default=listing) == legacy_dumps(document, default=listing)


# ------------------------------------------------------------------- golden


@pytest.fixture
def rendered(monkeypatch):
    """Route every JSON renderer through a checker that also runs the
    legacy renderer on the same document; returns the check count."""
    calls = []

    def checked(obj, default=None):
        text = json_emit.dumps_indented(obj, default=default)
        assert text == legacy_dumps(obj, default=default)
        calls.append(len(text))
        return text

    for module in (postgresql, mysql, tidb, neo4j, mongodb, json_format):
        monkeypatch.setattr(module, "dumps_indented", checked)
    return calls


def _generator_corpus():
    corpus = []
    for seed in (1, 2, 3):
        generator = RandomQueryGenerator(seed=seed, config=GeneratorConfig(max_tables=3))
        schema = generator.schema_statements()
        queries = []
        for _ in range(25):
            query = generator.select_query()
            queries.append(query)
            queries.append(generator.restricted_query(query, generator.tables[0]))
        corpus.append((schema, queries))
    return corpus


RELATIONAL_JSON = ("postgresql", "mysql", "tidb")


def _explain_everything(dialect, name, queries):
    count = 0
    converter = converter_for(name)
    for query in queries:
        for analyze in (False, True):
            try:
                output = dialect.explain(query, format="json", analyze=analyze)
            except ReproError:  # a statement that fails renders nothing
                continue
            formats.serialize(converter.convert(output.text, format="json"), "json")
            count += 1
    return count


def test_relational_dialects_cover_every_json_renderer():
    for name in ("postgresql", "mysql", "tidb", "sqlite", "sqlserver", "sparksql"):
        assert (name in RELATIONAL_JSON) == ("json" in create_dialect(name).supported_formats())


def test_generator_corpus_renders_identically(rendered):
    explained = 0
    for schema, queries in _generator_corpus():
        for name in RELATIONAL_JSON:
            dialect = create_dialect(name)
            for statement in schema:
                dialect.execute(statement)
            explained += _explain_everything(dialect, name, queries)
    assert explained > 300
    assert len(rendered) == 2 * explained


def test_tpch_renders_identically(rendered):
    assert len(tpch.QUERIES) == 22
    for name in RELATIONAL_JSON:
        dialect = create_dialect(name)
        tpch.load_into(dialect, scale=0.1)
        explained = _explain_everything(dialect, name, tpch.QUERIES.values())
        assert explained >= 2 * 21, name
    assert len(rendered) >= 2 * 3 * 2 * 21


def test_nosql_tpch_renders_identically(rendered):
    mongo = create_dialect("mongodb")
    tpch.load_mongodb(mongo, scale=0.1)
    for collection, pipeline in tpch.MONGODB_PIPELINES.values():
        statement = json.dumps({"aggregate": collection, "pipeline": pipeline})
        mongo.explain(statement, format="json")
    mongo.explain(json.dumps({"find": "orders", "filter": {"o_orderdate": {"$gt": 5}}}), format="json")
    graph = create_dialect("neo4j")
    tpch.load_neo4j(graph, scale=0.1)
    for cypher in tpch.NEO4J_QUERIES.values():
        for analyze in (False, True):
            graph.explain(cypher, format="json", analyze=analyze)
    expected = len(tpch.MONGODB_PIPELINES) + 1 + 2 * len(tpch.NEO4J_QUERIES)
    assert len(rendered) == expected
