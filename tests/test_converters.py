"""Tests for the DBMS-specific → unified plan converters (integration with dialects)."""

import copy
import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.converters import ConverterHub, available_converters, converter_for
from repro.converters.base import _coerce_value
from repro.core import OperationCategory, PropertyCategory, structural_fingerprint, validate_plan
from repro.core.model import Property, UnifiedPlan, value_token
from repro.dialects import create_dialect
from repro.core.naming import NameRegistry
from repro.errors import ConversionError, PlanValidationError, ReproError
from repro.storage.timeseries_store import Point

# The schema/data/query the relational conversions run over live in the
# shared ``tests/conftest.py`` (``relational_dialect`` / ``relational_query``
# fixtures), deduplicated with the pipeline corpus helpers.

RELATIONAL_FORMATS = [
    ("postgresql", "text"),
    ("postgresql", "json"),
    ("mysql", "json"),
    ("mysql", "table"),
    ("mysql", "tree"),
    ("tidb", "table"),
    ("tidb", "text"),
    ("tidb", "json"),
    ("sqlite", "text"),
    ("sqlserver", "xml"),
    ("sqlserver", "text"),
    ("sparksql", "text"),
]


class TestRegistry:
    def test_all_nine_converters_registered(self):
        assert len(available_converters()) == 9

    def test_unknown_converter(self):
        with pytest.raises(ConversionError):
            converter_for("oracle")

    def test_unsupported_format(self):
        with pytest.raises(ConversionError):
            converter_for("sqlite").convert("whatever", format="json")


class TestRelationalConversion:
    @pytest.mark.parametrize("name,format_name", RELATIONAL_FORMATS)
    def test_convert_produces_valid_plan(self, name, format_name, relational_dialect, relational_query):
        dialect = relational_dialect(name)
        serialized = dialect.explain(relational_query, format=format_name).text
        plan = converter_for(name).convert(serialized, format=format_name)
        assert plan.source_dbms == name
        assert plan.node_count() >= 2
        assert validate_plan(plan) == []

    @pytest.mark.parametrize("name,format_name", RELATIONAL_FORMATS)
    def test_conversion_finds_producers(self, name, format_name, relational_dialect, relational_query):
        dialect = relational_dialect(name)
        serialized = dialect.explain(relational_query, format=format_name).text
        plan = converter_for(name).convert(serialized, format=format_name)
        counts = plan.count_categories()
        assert counts[OperationCategory.PRODUCER] >= 1

    def test_postgresql_text_and_json_agree_structurally(self, relational_dialect, relational_query):
        dialect = relational_dialect("postgresql")
        converter = converter_for("postgresql")
        text_plan = converter.convert(dialect.explain(relational_query, format="text").text, format="text")
        json_plan = converter.convert(dialect.explain(relational_query, format="json").text, format="json")
        assert structural_fingerprint(text_plan) == structural_fingerprint(json_plan)

    def test_figure2_full_table_scan_mapping(self, relational_dialect):
        # Figure 2: EXPLAIN SELECT * FROM t0 WHERE c0 < 5 maps to a single
        # Producer->Full Table Scan for PostgreSQL/MySQL, plus an
        # Executor->Collect for TiDB's reader.
        query = "SELECT * FROM t0 WHERE c1 < 5"
        for name in ("postgresql", "mysql"):
            dialect = relational_dialect(name)
            converter = converter_for(name)
            plan = converter.convert(
                dialect.explain(query, format=converter.formats[0]).text,
                format=converter.formats[0],
            )
            names = [node.operation.identifier for node in plan.nodes()]
            assert "Full Table Scan" in names
        tidb = relational_dialect("tidb")
        tidb_plan = converter_for("tidb").convert(tidb.explain(query, format="table").text, format="table")
        identifiers = [node.operation.identifier for node in tidb_plan.nodes()]
        assert "Full Table Scan" in identifiers
        assert "Collect" in identifiers

    def test_tidb_unstable_suffix_stripped(self, relational_dialect, relational_query):
        dialect = relational_dialect("tidb")
        converter = converter_for("tidb")
        first = converter.convert(dialect.explain(relational_query, format="table").text, format="table")
        second = converter.convert(dialect.explain(relational_query, format="table").text, format="table")
        # Different runs produce different operator ids, but the structural
        # fingerprint must be identical (the original QPG parser bug).
        assert structural_fingerprint(first) == structural_fingerprint(second)
        assert any(node.operation.identifier == "Full Table Scan" for node in first.nodes())

    def test_postgresql_properties_categorised(self, relational_dialect):
        dialect = relational_dialect("postgresql")
        converter = converter_for("postgresql")
        plan = converter.convert(dialect.explain("SELECT * FROM t2 WHERE c0 < 10", format="text").text)
        scan = plan.root.walk().__next__()
        categories = {prop.category for prop in plan.all_properties()}
        assert PropertyCategory.COST in categories
        assert PropertyCategory.CARDINALITY in categories
        assert PropertyCategory.CONFIGURATION in categories
        assert PropertyCategory.STATUS in categories

    def test_sqlite_index_condition_property(self, relational_dialect):
        dialect = relational_dialect("sqlite")
        plan = converter_for("sqlite").convert(dialect.explain("SELECT c0 FROM t2 WHERE c0 < 10").text)
        producers = plan.operations_in(OperationCategory.PRODUCER)
        assert producers
        assert any(
            prop.category is PropertyCategory.CONFIGURATION
            for node in producers
            for prop in node.properties
        )

    def test_unknown_operation_falls_back_to_executor(self):
        converter = converter_for("postgresql")
        plan = converter.convert(
            "Fancy New Operator  (cost=0.00..1.00 rows=1 width=4)", format="text"
        )
        assert plan.root.operation.category is OperationCategory.EXECUTOR

    def test_garbage_input_raises(self):
        with pytest.raises(ConversionError):
            converter_for("postgresql").convert("", format="text")
        with pytest.raises(ConversionError):
            converter_for("mysql").convert("not json", format="json")
        with pytest.raises(ConversionError):
            converter_for("sqlserver").convert("<broken", format="xml")


class TestNoSQLConversion:
    def test_mongodb_explain_conversion(self):
        dialect = create_dialect("mongodb")
        dialect.insert_many("users", [{"_id": i, "age": i} for i in range(20)])
        dialect.create_index("users", "age")
        document = dialect.explain_find("users", {"age": {"$lt": 10}}, sort=[("age", 1)], limit=5)
        plan = converter_for("mongodb").convert(json.dumps(document), format="json")
        identifiers = [node.operation.identifier for node in plan.nodes()]
        assert "Index Scan" in identifiers  # IXSCAN
        assert "Document Fetch" in identifiers  # FETCH
        assert plan.count_categories()[OperationCategory.JOIN] == 0

    def test_neo4j_conversion_categories(self):
        dialect = create_dialect("neo4j")
        for i in range(5):
            node_a = dialect.store.create_node(["Item"], {"qid": f"Q{i}"})
            node_b = dialect.store.create_node(["Item"], {"qid": f"R{i}"})
            dialect.store.create_relationship(node_a.node_id, "P31", node_b.node_id)
        output = dialect.explain("MATCH (s:Item)-[r:P31]->(o:Item) RETURN s.qid, count(o.qid)", format="json")
        plan = converter_for("neo4j").convert(output.text, format="json")
        counts = plan.count_categories()
        assert counts[OperationCategory.JOIN] >= 1  # relationship scan / expand
        assert counts[OperationCategory.FOLDER] >= 1  # EagerAggregation
        assert counts[OperationCategory.PROJECTOR] >= 1  # ProduceResults

    def test_neo4j_text_conversion(self):
        dialect = create_dialect("neo4j")
        dialect.store.create_node(["Item"], {"qid": "Q1"})
        output = dialect.explain("MATCH (s:Item) RETURN s.qid", format="text")
        plan = converter_for("neo4j").convert(output.text, format="text")
        assert plan.node_count() >= 2
        assert plan.plan_property_value("Database Accesses") is not None

    def test_influxdb_plan_has_no_tree(self):
        dialect = create_dialect("influxdb")
        dialect.write_points("m", [Point(timestamp=i, fields={"v": 1.0}) for i in range(10)])
        output = dialect.explain("SELECT v FROM m")
        plan = converter_for("influxdb").convert(output.text)
        assert plan.root is None
        assert plan.node_count() == 0
        assert len(plan.properties) >= 5
        assert validate_plan(plan) == []


class TestUnknownNameFallback:
    """Every dialect converter must map unknown operations to the generic
    category without raising — the forward-compatibility guarantee of
    Section IV-B — property-based over random native names."""

    weird_names = st.text(min_size=1, max_size=40)

    @given(name=weird_names)
    @settings(max_examples=60, deadline=None)
    def test_operation_resolution_never_raises(self, name):
        from repro.core import OperationCategory

        for dbms in available_converters():
            operation = converter_for(dbms).operation(name)
            assert isinstance(operation.category, OperationCategory)
            assert operation.identifier

    @given(name=weird_names, value=st.one_of(st.none(), st.integers(), st.text(max_size=10), st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_property_resolution_never_raises(self, name, value):
        from repro.core import PropertyCategory as PC

        for dbms in available_converters():
            prop = converter_for(dbms).property(name, value)
            assert isinstance(prop.category, PC)
            assert prop.identifier

    def test_definitely_unknown_names_get_generic_category(self):
        for dbms in available_converters():
            converter = converter_for(dbms)
            operation = converter.operation("Frobnicate Quux Step 7")
            assert operation.category is OperationCategory.EXECUTOR
            prop = converter.property("Imaginary Metric Xyz", 1)
            assert prop.category is PropertyCategory.STATUS


def _fields(prop):
    """A property's fields, its value by exact type and token: ``==`` alone
    cannot tell ``True``, ``1`` and ``1.0`` apart, nor ``0.0`` from ``-0.0``."""
    return (prop.category, prop.identifier, type(prop.value), value_token(prop.value))


class TestNameMemo:
    """``PlanConverter.operation`` / ``property`` pay resolution, validation
    and interning once per native name, and build one shared ``Property``
    per distinct ``(name, raw value)``; the memo must be invisible."""

    def test_memoised_and_first_seen_names_build_equal_objects(self):
        registry = NameRegistry()
        seasoned = converter_for("postgresql", registry)
        for _ in range(3):
            seasoned.operation("Seq Scan")
            seasoned.property("Total Cost", 1.5)
            seasoned.property("Total Cost", 12.5)
            seasoned.property("never catalogued-name", "x")
            seasoned.property("never catalogued-name", "7")
            seasoned.property("Filter", None)
        fresh = converter_for("postgresql", registry)
        for native in ("Seq Scan", "Frobnicate Quux Step 7"):
            first_seen, memoised = fresh.operation(native), seasoned.operation(native)
            assert first_seen == memoised and hash(first_seen) == hash(memoised)
            assert seasoned.operation(native) is memoised  # the shared instance
        for native, value in (("Total Cost", 12.5), ("never catalogued-name", "7"), ("Filter", None)):
            first_seen, memoised = fresh.property(native, value), seasoned.property(native, value)
            assert seasoned.property(native, value) is memoised  # the shared instance
            assert first_seen == memoised and hash(first_seen) == hash(memoised)
            assert first_seen.identifier is memoised.identifier  # both interned
            assert _fields(first_seen) == _fields(memoised)
            assert str(first_seen) == str(memoised) and repr(first_seen) == repr(memoised)

    def test_raw_values_that_compare_equal_keep_their_own_type_and_sign(self):
        """``True == 1 == 1.0`` and ``0.0 == -0.0`` as dict keys, yet each
        coerces to a different value token; NaN never equals itself."""
        raws = [True, 1, 1.0, "1", 0.0, -0.0, float("nan"), False, 0, "0", "-0.0"]
        converter = converter_for("postgresql", NameRegistry())
        for order in (raws, raws[::-1], raws + raws):
            for raw in order:
                prop = converter.property("Plan Rows", raw)
                expected = _coerce_value(raw)
                assert type(prop.value) is type(expected)
                assert value_token(prop.value) == value_token(expected)
                if isinstance(expected, float):
                    assert math.copysign(1.0, prop.value) == math.copysign(1.0, expected)
        assert converter.property("Plan Rows", -0.0).value.hex() == "-0x0.0p+0"
        assert math.isnan(converter.property("Plan Rows", float("nan")).value)

    def test_unhashable_and_subclassed_raw_values_bypass_the_memo(self):
        import enum

        class Level(enum.IntEnum):
            LOW = 1

        converter = converter_for("mysql", NameRegistry())
        converter.property("used_columns", "warm-up")
        before = dict(converter._names().values)
        for raw in ({"a": 1}, ["a", 1], Level.LOW):
            first, second = converter.property("used_columns", raw), converter.property("used_columns", raw)
            assert first == second and first is not second
            assert first.value == _coerce_value(raw)
        assert converter._names().values == before

    def test_a_registration_starts_a_fresh_value_memo(self):
        registry = NameRegistry()
        converter = converter_for("postgresql", registry)
        before = converter.property("Tokens Used", 3)
        assert converter.property("Tokens Used", 3) is before
        registry.register_operation("postgresql", "Unrelated Op", OperationCategory.JOIN)
        after = converter.property("Tokens Used", 3)
        assert after is not before and after == before
        assert list(converter._names().values.values()) == [after]
        registry.register_property("postgresql", "Tokens Used", PropertyCategory.COST)
        assert converter.property("Tokens Used", 3).category is PropertyCategory.COST

    def test_memoised_properties_still_coerce_and_check_values(self):
        converter = converter_for("postgresql", NameRegistry())
        assert converter.property("Plan Rows", "10").value == 10
        assert converter.property("Plan Rows", "10").value == 10
        assert converter.property("Plan Rows", " 2.5 ").value == 2.5
        assert converter.property("Plan Rows", ["a"]).value == "['a']"
        with pytest.raises(PlanValidationError):
            Property.trusted(PropertyCategory.COST, "Total Cost", ["not", "a", "value"])

    def test_invalid_name_raises_on_every_call(self):
        registry = NameRegistry()
        registry.register_operation("postgresql", "Bad Op", OperationCategory.JOIN, "9 starts with a digit")
        registry.register_property("postgresql", "Bad Prop", PropertyCategory.COST, "trailing space ")
        converter = converter_for("postgresql", registry)
        for _ in range(3):
            with pytest.raises(PlanValidationError):
                converter.operation("Bad Op")
            with pytest.raises(PlanValidationError):
                converter.property("Bad Prop", 1)
        assert converter.operation("Good Op").identifier == "Good Op"

    def test_a_registration_after_the_fact_is_seen(self):
        registry = NameRegistry()
        converter = converter_for("postgresql", registry)
        assert converter.operation("LLM Join").category is OperationCategory.EXECUTOR
        assert converter.property("Tokens Used", 3).category is PropertyCategory.STATUS
        registry.register_operation("postgresql", "LLM Join", OperationCategory.JOIN)
        registry.register_property("postgresql", "Tokens Used", PropertyCategory.COST)
        assert converter.operation("LLM Join").category is OperationCategory.JOIN
        assert converter.property("Tokens Used", 3).category is PropertyCategory.COST

    def test_the_memo_is_bounded(self, monkeypatch):
        from repro.converters import base

        monkeypatch.setattr(base, "_NAME_MEMO_LIMIT", 4)
        converter = converter_for("tidb", NameRegistry())
        for number in range(50):  # auto-numbered operators, as in a long campaign
            assert converter.operation(f"TableFullScan_{number}").identifier == f"Table Full Scan_{number}"
            assert converter.property(f"metric {number}", number).value == number
            assert converter.property("estRows", str(number)).value == number
        memo = converter._names()
        assert len(memo.operations) == 4 and len(memo.properties) == 4 and len(memo.values) == 4
        assert converter.operation("TableFullScan_49") == converter.operation("TableFullScan_49")
        past_the_bound = converter.property("estRows", "49")
        assert converter.property("estRows", "49") == past_the_bound
        assert converter.property("estRows", "49") is not past_the_bound


    def test_threads_sharing_a_converter_agree_with_one_thread(self):
        """The hub hands one converter to every ingest worker thread, so the
        memo is shared state: racing fills (and a registration landing in the
        middle) must never produce a property a lone thread would not."""
        import sys
        import threading

        registry = NameRegistry()
        shared = converter_for("tidb", registry)
        # Raw values that collide as dict keys, so racing value-memo fills
        # must still keep each one's own type and sign.
        raws = [True, 1, 1.0, "1", 0.0, -0.0]
        calls = [(f"metric {number % 97}", raws[number % len(raws)]) for number in range(600)]
        lone = converter_for("tidb", NameRegistry())
        expected = [(_fields(lone.property(name, raw)), lone.operation(name)) for name, raw in calls]
        results = {}

        def worker(slot):
            results[slot] = [
                (_fields(shared.property(name, raw)), shared.operation(name)) for name, raw in calls
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
            for thread in threads:
                thread.start()
            # Unrelated to the names above: only the generation moves.
            registry.register_property("tidb", "elsewhere", PropertyCategory.COST)
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[slot] == expected for slot in range(6))
        # A registration that *does* touch a memoised name is seen by every
        # call that starts after it.
        registry.register_property("tidb", "metric 5", PropertyCategory.COST)
        assert shared.property("metric 5", 1).category is PropertyCategory.COST


#: Every ``(dbms, native format)`` pair a converter parses (17).
FORMAT_PAIRS = [(name, fmt) for name in available_converters() for fmt in converter_for(name).formats]


class TestSharedValues:
    """Within one converter's lifetime a repeated value is one shared frozen
    ``Property``; the sharing must change no fingerprint and no copy."""

    @pytest.mark.parametrize("name,format_name", FORMAT_PAIRS)
    def test_a_text_converted_twice_shares_every_property(self, name, format_name, dialect_format_example_texts):
        text = dialect_format_example_texts[(name, format_name)]
        converter = converter_for(name, NameRegistry())
        first, second = (converter.convert(text, format=format_name) for _ in range(2))
        assert len(first.all_properties()) == len(second.all_properties()) > 0
        for left, right in zip(first.all_properties(), second.all_properties()):
            assert left is right
        for left, right in zip(first.nodes(), second.nodes()):
            assert left is not right and left.operation is right.operation
        fresh = converter_for(name, NameRegistry()).convert(text, format=format_name)
        assert second.fingerprint() == first.fingerprint() == fresh.fingerprint()
        assert structural_fingerprint(second, True) == structural_fingerprint(fresh, True)

    @pytest.mark.parametrize("name,format_name", FORMAT_PAIRS)
    def test_a_shared_plan_round_trips_with_its_fingerprint(self, name, format_name, dialect_format_example_texts):
        converter = converter_for(name, NameRegistry())
        text = dialect_format_example_texts[(name, format_name)]
        converter.convert(text, format=format_name)  # every value is now memoised
        plan = converter.convert(text, format=format_name)
        expected = plan.fingerprint(), structural_fingerprint(plan), structural_fingerprint(plan, True)
        for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan), plan.copy()):
            assert clone == plan
            assert (clone.fingerprint(), structural_fingerprint(clone), structural_fingerprint(clone, True)) == expected

    def test_a_cached_line_is_invisible(self):
        bare = Property(PropertyCategory.COST, "Total Cost", -0.0)
        lined = Property(PropertyCategory.COST, "Total Cost", -0.0)
        node = converter_for("postgresql", NameRegistry()).make_node("Seq Scan")
        node.properties.append(lined)
        node.fingerprint()
        assert lined._canonical is not None and bare._canonical is None
        assert lined == bare and hash(lined) == hash(bare)
        assert repr(lined) == repr(bare) and str(lined) == str(bare)
        assert lined.to_dict() == bare.to_dict()
        assert pickle.dumps(lined) == pickle.dumps(bare)
        for clone in (pickle.loads(pickle.dumps(lined)), copy.deepcopy(lined)):
            assert clone == lined and clone._canonical is None
        operation = node.operation
        assert operation._identity_head is not None
        assert pickle.loads(pickle.dumps(operation))._identity_head is None


#: Documents of the wrong shape for some parser: JSON scalars and arrays
#: where an object belongs (and the reverse), members of the wrong type,
#: malformed numbers, XML without plan elements, and nesting past the stack.
WRONG_SHAPES = [
    "", " ", "[]", "{}", "123", "null", "true", '"plan"', "[1]", "[[]]", "[null]",
    '[{"Plan": 5}]', '[{"Plan": {"Plans": 7}}]', '[{"Plan": {"Plans": [1]}}]',
    '{"query_block": []}', '{"query_block": {"plan": 5}}', '{"query_block": {"cost_info": 3}}',
    '{"query_block": {"plan": {"nested_operations": 4}}}',
    '{"id": 5, "subOperators": 7}', '{"id": 5, "subOperators": [1]}',
    '{"plan": 5}', '{"plan": [5]}', '{"plan": [{"Operator": "X"}], "summary": 3}',
    '{"queryPlanner": 5}', '{"queryPlanner": {"winningPlan": 5}}',
    '{"queryPlanner": {"winningPlan": {"inputStage": 4}}}',
    '{"queryPlanner": {"winningPlan": {"inputStages": [3]}}, "executionStats": 1}',
    "[" * 5000 + "]" * 5000,
    '{"a": ' * 5000 + "1" + "}" * 5000,
    "Seq Scan on t0  (cost=0.00...22 rows=9 width=16)",
    "-> Table scan  (cost=1.2.3 rows=5)",
    "<a/>", "<RelOp/>", "<a><RelOp PhysicalOp='x'>" + "<RelOp>" * 3000 + "</RelOp>" * 3000 + "</RelOp></a>",
    "|id|\n|x|", "| a | b |\n| 1 |", "(", "|--", "+Foo | x | y |", "\x00",
]


def _converts_or_raises_typed(name, format_name, text):
    """Convert *text*: a plan that fingerprints, or a ``ReproError``."""
    try:
        plan = converter_for(name).convert(text, format=format_name)
    except ReproError:
        return
    assert isinstance(plan, UnifiedPlan)
    plan.fingerprint()
    structural_fingerprint(plan, True)


class TestMalformedInput:
    """Every converter either converts or raises a ``ReproError``: a parser
    crash on input of the wrong shape is mapped in ``PlanConverter.convert``."""

    @pytest.mark.parametrize("name,format_name", FORMAT_PAIRS)
    def test_wrong_shape_documents(self, name, format_name):
        for text in WRONG_SHAPES:
            _converts_or_raises_typed(name, format_name, text)

    def test_the_reported_crashes_are_conversion_errors(self):
        for name, format_name, text in [
            ("postgresql", "text", "Seq Scan on t0  (cost=0.00...22 rows=9 width=16)"),
            ("postgresql", "json", "[1]"),
            ("mysql", "json", "[]"),
            ("neo4j", "json", "123"),
            ("mongodb", "json", "null"),
            ("tidb", "json", '{"id": 5, "subOperators": 7}'),
        ]:
            with pytest.raises(ConversionError, match=rf"^\[{name}\] malformed {format_name} plan") as caught:
                converter_for(name).convert(text, format=format_name)
            assert isinstance(caught.value.__cause__, (ValueError, TypeError, AttributeError))

    @pytest.mark.parametrize("name,format_name", FORMAT_PAIRS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_or_damaged_texts(self, name, format_name, data, dialect_format_example_texts):
        text = dialect_format_example_texts[(name, format_name)]
        position = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        damaged = data.draw(st.sampled_from([text[:position], text[:position] + text[position + 1:]]))
        _converts_or_raises_typed(name, format_name, damaged)

    def test_ingest_records_malformed_sources_as_entry_errors(self):
        from repro.pipeline import PlanIngestService, PlanSource

        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(
            [PlanSource("mysql", "[]", "json"), PlanSource("tidb", '{"id": 5, "subOperators": 7}', "json")]
        )
        assert report.errors == 2
        assert all(entry.error.startswith(f"[{entry.source.dbms}] malformed json plan") for entry in report.entries)


class TestHubInstances:
    def test_two_threads_get_the_one_shared_instance(self, hub):
        """``converter()`` reads lock-free and locks only to instantiate:
        racing first calls must still leave exactly one instance per DBMS."""
        import threading

        for name in available_converters():
            barrier = threading.Barrier(2)
            seen = []

            def first_call():
                barrier.wait()
                seen.append(hub.converter(name))

            threads = [threading.Thread(target=first_call) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert seen[0] is seen[1] is hub.converter(name)
        assert sorted(hub._instances) == available_converters()

    def test_instantiation_happens_once_under_contention(self, hub, monkeypatch):
        import threading
        import time

        from repro.converters.base import ConverterHub

        built = []
        real = ConverterHub._classes["sqlite"]

        class Slow(real):
            def __init__(self, registry=None):
                built.append(threading.get_ident())
                time.sleep(0.05)  # hold the window open for the other thread
                super().__init__(registry)

        monkeypatch.setitem(ConverterHub._classes, "sqlite", Slow)
        seen = []
        threads = [
            threading.Thread(target=lambda: seen.append(hub.converter("sqlite")))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 1
        assert seen[0] is seen[1]
