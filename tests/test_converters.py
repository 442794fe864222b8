"""Tests for the DBMS-specific → unified plan converters (integration with dialects)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.converters import available_converters, converter_for
from repro.core import OperationCategory, PropertyCategory, structural_fingerprint, validate_plan
from repro.dialects import create_dialect
from repro.core.naming import NameRegistry
from repro.errors import ConversionError, PlanValidationError
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


class TestNameMemo:
    """``PlanConverter.operation`` / ``property`` pay resolution, validation
    and interning once per native name (PR 24); the memo must be invisible."""

    def test_memoised_and_first_seen_names_build_equal_objects(self):
        registry = NameRegistry()
        seasoned = converter_for("postgresql", registry)
        for _ in range(3):
            seasoned.operation("Seq Scan")
            seasoned.property("Total Cost", 1.5)
            seasoned.property("never catalogued-name", "x")
        fresh = converter_for("postgresql", registry)
        for native in ("Seq Scan", "Frobnicate Quux Step 7"):
            first_seen, memoised = fresh.operation(native), seasoned.operation(native)
            assert first_seen == memoised and hash(first_seen) == hash(memoised)
            assert seasoned.operation(native) is memoised  # the shared instance
        for native, value in (("Total Cost", 12.5), ("never catalogued-name", "7"), ("Filter", None)):
            first_seen, memoised = fresh.property(native, value), seasoned.property(native, value)
            assert first_seen == memoised and hash(first_seen) == hash(memoised)
            assert first_seen.identifier is memoised.identifier  # both interned
            assert first_seen.__dict__ == memoised.__dict__
            assert str(first_seen) == str(memoised)

    def test_memoised_properties_still_coerce_and_check_values(self):
        converter = converter_for("postgresql", NameRegistry())
        assert converter.property("Plan Rows", "10").value == 10
        assert converter.property("Plan Rows", "10").value == 10
        assert converter.property("Plan Rows", " 2.5 ").value == 2.5
        assert converter.property("Plan Rows", ["a"]).value == "['a']"
        from repro.core.model import Property

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
        assert len(converter._names().operations) == 4 and len(converter._names().properties) == 4
        assert converter.operation("TableFullScan_49") == converter.operation("TableFullScan_49")


    def test_threads_sharing_a_converter_agree_with_one_thread(self):
        """The hub hands one converter to every ingest worker thread, so the
        memo is shared state: racing fills (and a registration landing in the
        middle) must never produce a property a lone thread would not."""
        import sys
        import threading

        registry = NameRegistry()
        shared = converter_for("tidb", registry)
        names = [f"metric {number % 97}" for number in range(600)]
        lone = converter_for("tidb", NameRegistry())
        expected = [(lone.property(name, "1"), lone.operation(name)) for name in names]
        results = {}

        def worker(slot):
            results[slot] = [(shared.property(name, "1"), shared.operation(name)) for name in names]

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
