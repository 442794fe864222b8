"""Tests for grammar, serialization formats, validation, and comparison."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    OperationCategory,
    PlanBuilder,
    PlanNode,
    Operation,
    Property,
    PropertyCategory,
    UnifiedPlan,
    formats,
    grammar,
    diff_plans,
    is_valid_plan,
    plan_similarity,
    structural_fingerprint,
    structural_signature,
    tree_edit_distance,
    validate_plan,
)
from repro.core.compare import strip_unstable_suffix
from repro.errors import FormatError, GrammarError, PlanValidationError, ReproError


def sample_plan() -> UnifiedPlan:
    return (
        PlanBuilder(source_dbms="tidb")
        .operation(OperationCategory.EXECUTOR, "Collect")
        .cost("Total Cost", 12.5)
        .child(OperationCategory.PRODUCER, "Full Table Scan")
        .configuration("name object", "partsupp")
        .cardinality("Estimated Rows", 800)
        .end()
        .plan_prop(PropertyCategory.STATUS, "Task Type", "root")
        .build()
    )


class TestGrammar:
    def test_serialize_contains_categories(self):
        text = grammar.serialize(sample_plan())
        assert "Operation: Executor->Collect" in text
        assert "--children-->" in text
        assert "Producer->Full_Table_Scan" in text

    def test_roundtrip_structure(self):
        plan = sample_plan()
        restored = grammar.parse(grammar.serialize(plan))
        assert restored.node_count() == plan.node_count()
        assert restored.root.operation == plan.root.operation

    def test_parse_values(self):
        plan = grammar.parse(
            'Operation: Producer->Scan Cost->Total_Cost: 3.5, Status->Flag: true, '
            'Configuration->Filter: "x < 1", Status->Oops: null'
        )
        values = {prop.identifier: prop.value for prop in plan.root.properties}
        assert values["Total Cost"] == 3.5
        assert values["Flag"] is True
        assert values["Filter"] == "x < 1"
        assert values["Oops"] is None

    def test_parse_plan_without_tree(self):
        plan = grammar.parse('Cardinality->Series_Count: 10, Status->Shards_Queried: 2')
        assert plan.root is None
        assert len(plan.properties) == 2

    def test_parse_errors(self):
        with pytest.raises(GrammarError):
            grammar.parse("Operation: Nonsense->X")
        with pytest.raises(GrammarError):
            grammar.parse('Operation: Producer->Scan Cost->x "unterminated')
        with pytest.raises(GrammarError):
            grammar.parse("Operation Producer->Scan")

    def test_nested_children(self):
        plan = (
            PlanBuilder()
            .operation(OperationCategory.JOIN, "Hash Join")
            .child(OperationCategory.PRODUCER, "Full Table Scan")
            .end()
            .child(OperationCategory.PRODUCER, "Index Scan")
            .end()
            .build()
        )
        restored = grammar.parse(grammar.serialize(plan))
        assert len(restored.root.children) == 2

    def test_roundtrip_helper(self):
        plan = sample_plan()
        restored = grammar.roundtrip(plan)
        assert restored.source_dbms == "tidb"


# Underscores are excluded: the grammar text form encodes spaces as
# underscores, so identifiers containing literal underscores are not
# round-trippable by design (unified names never contain them).
_identifier = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,10}", fullmatch=True)
_value = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "), max_size=12),
)


@st.composite
def plan_trees(draw, depth=2):
    operation = Operation(
        draw(st.sampled_from(list(OperationCategory))), draw(_identifier)
    )
    properties = [
        Property(draw(st.sampled_from(list(PropertyCategory))), draw(_identifier), draw(_value))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    children = []
    if depth > 0:
        children = [
            draw(plan_trees(depth=depth - 1))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
    return PlanNode(operation, properties, children)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(plan_trees())
    def test_json_roundtrip_lossless(self, root):
        plan = UnifiedPlan(root=root, source_dbms="test")
        restored = formats.deserialize(formats.serialize(plan, "json"), "json")
        assert restored.to_dict() == plan.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(plan_trees())
    def test_grammar_roundtrip_preserves_structure(self, root):
        plan = UnifiedPlan(root=root)
        restored = grammar.parse(grammar.serialize(plan))
        assert restored.node_count() == plan.node_count()
        assert tree_edit_distance(restored.root, plan.root) == 0

    @settings(max_examples=60, deadline=None)
    @given(plan_trees())
    def test_fingerprint_is_stable_under_cost_changes(self, root):
        plan = UnifiedPlan(root=root)
        modified = plan.copy()
        modified.root.properties.append(
            Property(PropertyCategory.COST, "Total Cost", 123456)
        )
        assert structural_fingerprint(plan) == structural_fingerprint(modified)

    @settings(max_examples=40, deadline=None)
    @given(plan_trees())
    def test_validate_generated_plans(self, root):
        plan = UnifiedPlan(root=root)
        assert is_valid_plan(plan)

    @settings(max_examples=40, deadline=None)
    @given(plan_trees())
    def test_edit_distance_self_is_zero(self, root):
        assert tree_edit_distance(root, root.copy()) == 0


class TestFormats:
    def test_supported_formats(self):
        names = formats.supported_formats()
        for expected in ("json", "text", "table", "xml", "yaml", "grammar"):
            assert expected in names

    def test_unknown_format_raises(self):
        with pytest.raises(FormatError):
            formats.serialize(sample_plan(), "protobuf")
        with pytest.raises(FormatError):
            formats.deserialize("{}", "xml")

    def test_json_document_shape(self):
        document = json.loads(formats.serialize(sample_plan(), "json"))
        assert document["source_dbms"] == "tidb"
        assert document["tree"]["operation"]["identifier"] == "Collect"

    def test_json_rejects_bad_documents(self):
        with pytest.raises(FormatError):
            formats.deserialize("not json", "json")
        with pytest.raises(FormatError):
            formats.deserialize("[1, 2]", "json")

    def test_text_roundtrip(self):
        plan = sample_plan()
        restored = formats.deserialize(formats.serialize(plan, "text"), "text")
        assert restored.node_count() == plan.node_count()
        assert len(restored.properties) == len(plan.properties)

    def test_table_contains_all_operations(self):
        rendered = formats.serialize(sample_plan(), "table")
        assert "Executor->Collect" in rendered
        assert "Producer->Full Table Scan" in rendered

    def test_xml_output(self):
        rendered = formats.serialize(sample_plan(), "xml")
        assert "<unifiedPlan" in rendered
        assert 'identifier="Full Table Scan"' in rendered

    @pytest.mark.parametrize("source", ["pg\tx", "pg\nx", "pg\rx", " pg\r\n\tx "])
    def test_xml_source_dbms_keeps_its_whitespace(self, source):
        rendered = formats.serialize(UnifiedPlan(source_dbms=source), "xml")
        assert formats.deserialize(rendered, "xml").source_dbms == source

    def test_xml_refuses_a_source_dbms_it_cannot_carry(self):
        with pytest.raises(FormatError):
            formats.serialize(UnifiedPlan(source_dbms="pg\x01x"), "xml")

    def test_yaml_output(self):
        rendered = formats.serialize(sample_plan(), "yaml")
        assert "source_dbms: tidb" in rendered

    def test_register_custom_format(self):
        formats.register_format("opcount", lambda plan: str(plan.node_count()))
        assert formats.serialize(sample_plan(), "opcount") == "2"


class TestValidation:
    def test_valid_plan(self):
        assert validate_plan(sample_plan()) == []

    def test_empty_plan_is_invalid(self):
        findings = validate_plan(UnifiedPlan(), raise_on_error=False)
        assert findings

    def test_shared_node_detected(self):
        shared = PlanNode(Operation(OperationCategory.PRODUCER, "Full Table Scan"))
        root = PlanNode(Operation(OperationCategory.JOIN, "Hash Join"), children=[shared, shared])
        findings = validate_plan(UnifiedPlan(root=root), raise_on_error=False)
        assert any("more than once" in finding for finding in findings)

    def test_raises_by_default(self):
        with pytest.raises(PlanValidationError):
            validate_plan(UnifiedPlan())


class TestComparison:
    def test_strip_unstable_suffix(self):
        assert strip_unstable_suffix("TableFullScan_5") == "TableFullScan"
        assert strip_unstable_suffix("HashJoin 12") == "HashJoin"
        assert strip_unstable_suffix("Sort") == "Sort"

    def test_fingerprint_differs_for_different_structures(self):
        left = sample_plan()
        right = sample_plan()
        right.root.children[0] = PlanNode(
            Operation(OperationCategory.PRODUCER, "Index Scan")
        )
        assert structural_fingerprint(left) != structural_fingerprint(right)

    def test_signature_readable(self):
        assert "Full Table Scan" in structural_signature(sample_plan())

    def test_tree_edit_distance(self):
        left = sample_plan()
        right = sample_plan()
        assert tree_edit_distance(left.root, right.root) == 0
        right.root.children.append(PlanNode(Operation(OperationCategory.EXECUTOR, "Gather")))
        assert tree_edit_distance(left.root, right.root) == 1
        assert tree_edit_distance(None, None) == 0
        assert tree_edit_distance(left.root, None) == left.root.size()

    def test_plan_similarity_bounds(self):
        left = sample_plan()
        right = sample_plan()
        assert plan_similarity(left, right) == 1.0
        empty = UnifiedPlan()
        assert 0.0 <= plan_similarity(left, empty) <= 1.0

    def test_diff_plans(self):
        left = sample_plan()
        right = sample_plan()
        right.root.children.append(PlanNode(Operation(OperationCategory.EXECUTOR, "Gather")))
        diff = diff_plans(left, right)
        assert not diff.identical_structure
        assert "Executor->Gather" in diff.only_in_right
        assert diff.category_delta[OperationCategory.EXECUTOR] == -1


#: Every DBMS with a registered converter; the round-trip matrix below runs
#: each one's example plan through each parseable format.
def _dialect_names():
    from repro.converters import available_converters

    return available_converters()


class TestRoundTripMatrix:
    """serialize -> parse -> fingerprint over the full dialect×format matrix.

    The pipeline's round-trip invariant — ``fingerprint()`` and
    ``structural_fingerprint()`` depend only on plan content, so every
    parseable serialization format must preserve both — is asserted for a
    *real converted plan from every registered DBMS* (relational and NoSQL,
    tree-less plans included) rather than for hand-picked builder plans.
    """

    PARSEABLE = ("json", "text", "xml", "yaml", "grammar")

    def test_matrix_covers_every_parseable_format(self):
        assert set(self.PARSEABLE) == set(formats.parseable_formats())

    @pytest.mark.parametrize("format_name", PARSEABLE)
    @pytest.mark.parametrize("dialect_name", _dialect_names())
    def test_fingerprint_invariant_under_round_trip(
        self, dialect_name, format_name, dialect_example_plans
    ):
        plan = dialect_example_plans[dialect_name]
        restored = formats.deserialize(
            formats.serialize(plan, format_name), format_name
        )
        assert restored.fingerprint() == plan.fingerprint()
        # The structural fingerprint (QPG's coverage identity) survives too,
        # in both modes.
        assert structural_fingerprint(restored) == structural_fingerprint(plan)
        assert structural_fingerprint(
            restored, include_configuration=True
        ) == structural_fingerprint(plan, include_configuration=True)

    @pytest.mark.parametrize("dialect_name", _dialect_names())
    def test_round_trip_preserves_node_count(
        self, dialect_name, dialect_example_plans
    ):
        plan = dialect_example_plans[dialect_name]
        for format_name in self.PARSEABLE:
            restored = formats.deserialize(
                formats.serialize(plan, format_name), format_name
            )
            assert restored.node_count() == plan.node_count(), format_name
            assert len(restored.properties) == len(plan.properties), format_name


class TestRoundTripFingerprints:
    """Value-fidelity spot checks riding on one hand-built rich plan.

    Fingerprint invariance itself is covered exhaustively by
    :class:`TestRoundTripMatrix`; these tests pin down *value typing*
    subtleties (string-vs-number, None, booleans) that converted plans do
    not always exercise.
    """

    PARSEABLE = ("json", "text", "xml", "yaml", "grammar")

    def rich_plan(self) -> UnifiedPlan:
        return (
            PlanBuilder(source_dbms="postgresql")
            .operation(OperationCategory.COMBINATOR, "Sort")
            .configuration("Sort Key", "c0")
            .cost("Total Cost", 17.25)
            .child(OperationCategory.JOIN, "Hash Join")
            .configuration("Join Condition", 'x = "quoted" AND y < 3')
            .cardinality("Estimated Rows", 42)
            .child(OperationCategory.PRODUCER, "Full Table Scan")
            .configuration("name object", "t0")
            .status("Flag", True)
            .end()
            .child(OperationCategory.PRODUCER, "Index Scan")
            .configuration("index name", "i0")
            .end()
            .end()
            .plan_prop(PropertyCategory.STATUS, "Planning Time", 0.125)
            .plan_prop(PropertyCategory.STATUS, "Version String", "5")
            .plan_prop(PropertyCategory.STATUS, "Nothing", None)
            .build()
        )

    @pytest.mark.parametrize("format_name", PARSEABLE)
    def test_round_trip_preserves_value_types(self, format_name):
        plan = self.rich_plan()
        restored = formats.deserialize(formats.serialize(plan, format_name), format_name)
        values = {p.identifier: p.value for p in restored.properties}
        assert values["Planning Time"] == 0.125
        assert values["Version String"] == "5"  # string, not the number 5
        assert values["Nothing"] is None

    @pytest.mark.parametrize("format_name", PARSEABLE)
    def test_round_trip_treeless_plan(self, format_name):
        plan = UnifiedPlan(source_dbms="influxdb")
        plan.add_property(PropertyCategory.COST, "Estimated Cost", 3)
        restored = formats.deserialize(formats.serialize(plan, format_name), format_name)
        assert restored.fingerprint() == plan.fingerprint()

    #: Values the formats once lost: non-finite and negative-zero floats,
    #: every line terminator ``str.splitlines()`` splits on, a backslash.
    EDGE_VALUES = [float("inf"), float("-inf"), float("nan"), -0.0, "back\\slash \\u2028"] + [
        f"line{terminator}break" for terminator in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    ]

    @pytest.mark.parametrize("format_name", PARSEABLE)
    def test_round_trip_preserves_edge_values(self, format_name):
        plan = self.rich_plan()
        for index, value in enumerate(self.EDGE_VALUES):
            plan.root.properties.append(Property(PropertyCategory.CONFIGURATION, f"v{index}", value))
            plan.add_property(PropertyCategory.STATUS, f"v{index}", value)
        restored = formats.deserialize(formats.serialize(plan, format_name), format_name)
        for properties in (restored.root.properties, restored.properties):
            values = {p.identifier: p.value for p in properties}
            for index, value in enumerate(self.EDGE_VALUES):
                assert type(values[f"v{index}"]) is type(value)
                assert repr(values[f"v{index}"]) == repr(value)
        assert restored.fingerprint() == plan.fingerprint()

    @pytest.mark.parametrize("node_properties", [1, 0])
    @pytest.mark.parametrize("format_name", PARSEABLE)
    def test_round_trip_childless_root_with_plan_properties(self, format_name, node_properties):
        root = PlanNode(Operation(OperationCategory.PRODUCER, "Full Table Scan"))
        if node_properties:
            root.add_property(PropertyCategory.STATUS, "v", None)
        plan = UnifiedPlan(root=root)
        plan.add_property(PropertyCategory.CARDINALITY, "Planning Time", 1.5)
        restored = formats.deserialize(formats.serialize(plan, format_name), format_name)
        assert len(restored.root.properties) == node_properties
        assert [p.identifier for p in restored.properties] == ["Planning Time"]
        assert restored.fingerprint() == plan.fingerprint()

    def test_plan_property_flag_round_trips(self):
        plan = self.rich_plan()
        for format_name in self.PARSEABLE:
            restored = formats.deserialize(
                formats.serialize(plan, format_name), format_name
            )
            node = restored.root.children[0].children[0]
            assert node.property_value("Flag") is True


class TestReaderFuzz:
    """Every reader answers hostile input with a typed error or a plan:
    never a ``RecursionError`` or an untyped crash."""

    @staticmethod
    def documents():
        plan = TestRoundTripFingerprints().rich_plan()
        return {name: formats.serialize(plan, name) for name in TestRoundTripFingerprints.PARSEABLE}

    @given(
        format_name=st.sampled_from(TestRoundTripFingerprints.PARSEABLE),
        edits=st.lists(
            st.tuples(st.floats(0, 1), st.integers(0, 8), st.text(alphabet='"\\:->{}[],<>/=* \n-#&;0123456789enaufl', max_size=6)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_edited_documents(self, format_name, edits):
        text = self.documents()[format_name]
        for where, cut, inserted in edits:
            position = int(where * len(text))
            text = text[:position] + inserted + text[position + cut:]
        self._read(text, format_name)

    @given(
        format_name=st.sampled_from(TestRoundTripFingerprints.PARSEABLE),
        text=st.text(max_size=60),
        nesting=st.integers(0, 3000),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_and_deeply_nested_text(self, format_name, text, nesting):
        opener = {"json": "[", "xml": "<node>", "yaml": "  -\n", "grammar": "Operation: Producer->X --children--> { ", "text": " "}
        self._read(text, format_name)
        self._read(opener[format_name] * nesting + text, format_name)

    @staticmethod
    def _read(text, format_name):
        try:
            plan = formats.deserialize(text, format_name)
        except ReproError:
            return
        assert isinstance(plan, UnifiedPlan)
