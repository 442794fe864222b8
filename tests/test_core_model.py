"""Unit tests for the unified plan data model (repro.core.model / categories)."""

import gc
import weakref

import pytest

from repro.core import (
    OPERATION_CATEGORY_ORDER,
    PROPERTY_CATEGORY_ORDER,
    Operation,
    OperationCategory,
    PlanBuilder,
    PlanNode,
    Property,
    PropertyCategory,
    UnifiedPlan,
    node,
)
from repro.core.model import is_valid_keyword, is_valid_value, merge_property_lists
from repro.errors import PlanValidationError


def build_sample_plan() -> UnifiedPlan:
    return (
        PlanBuilder(source_dbms="postgresql", query="SELECT 1")
        .operation(OperationCategory.FOLDER, "Aggregate")
        .cardinality("Estimated Rows", 10)
        .child(OperationCategory.JOIN, "Hash Join")
        .configuration("Join Condition", "a = b")
        .child(OperationCategory.PRODUCER, "Full Table Scan")
        .configuration("name object", "t0")
        .end()
        .sibling(OperationCategory.PRODUCER, "Index Scan")
        .configuration("index name", "i0")
        .end()
        .end()
        .plan_prop(PropertyCategory.STATUS, "Planning Time", 0.5)
        .build()
    )


class TestCategories:
    def test_seven_operation_categories(self):
        assert len(OperationCategory) == 7
        assert len(OPERATION_CATEGORY_ORDER) == 7

    def test_four_property_categories(self):
        assert len(PropertyCategory) == 4
        assert len(PROPERTY_CATEGORY_ORDER) == 4

    def test_from_name_case_insensitive(self):
        assert OperationCategory.from_name("producer") is OperationCategory.PRODUCER
        assert PropertyCategory.from_name("COST") is PropertyCategory.COST

    def test_from_name_unknown_raises(self):
        with pytest.raises(ValueError):
            OperationCategory.from_name("NotACategory")
        with pytest.raises(ValueError):
            PropertyCategory.from_name("NotACategory")

    def test_algebra_correspondence(self):
        assert OperationCategory.PRODUCER.algebra == "σ"
        assert OperationCategory.EXECUTOR.algebra == ""


class TestOperationAndProperty:
    def test_operation_str(self):
        operation = Operation(OperationCategory.PRODUCER, "Full Table Scan")
        assert str(operation) == "Producer->Full Table Scan"

    def test_operation_rejects_bad_identifier(self):
        with pytest.raises(PlanValidationError):
            Operation(OperationCategory.PRODUCER, "1bad")
        with pytest.raises(PlanValidationError):
            Operation(OperationCategory.PRODUCER, "")

    def test_operation_rejects_bad_category(self):
        with pytest.raises(PlanValidationError):
            Operation("Producer", "Full Table Scan")

    def test_property_value_domain(self):
        Property(PropertyCategory.COST, "Total Cost", 1.5)
        Property(PropertyCategory.STATUS, "Flag", True)
        Property(PropertyCategory.STATUS, "Nothing", None)
        with pytest.raises(PlanValidationError):
            Property(PropertyCategory.COST, "Total Cost", [1, 2])

    def test_operation_roundtrip_dict(self):
        operation = Operation(OperationCategory.JOIN, "Hash Join")
        assert Operation.from_dict(operation.to_dict()) == operation

    def test_property_roundtrip_dict(self):
        prop = Property(PropertyCategory.CARDINALITY, "Estimated Rows", 42)
        assert Property.from_dict(prop.to_dict()) == prop

    def test_is_valid_keyword(self):
        assert is_valid_keyword("Full Table Scan")
        assert is_valid_keyword("abc_123")
        assert not is_valid_keyword("9lives")
        assert not is_valid_keyword("")
        assert not is_valid_keyword("has-dash")

    def test_is_valid_keyword_rejects_irregular_spacing(self):
        # Regression: "Scan  " used to pass, making visually identical
        # identifiers denote different operations.
        assert not is_valid_keyword("Scan  ")
        assert not is_valid_keyword("Scan ")
        assert not is_valid_keyword("Full  Table Scan")
        assert not is_valid_keyword(" Scan")
        assert is_valid_keyword("Scan")

    def test_operation_rejects_irregular_spacing(self):
        from repro.core import Operation, OperationCategory
        from repro.errors import PlanValidationError

        with pytest.raises(PlanValidationError):
            Operation(OperationCategory.PRODUCER, "Scan  ")
        with pytest.raises(PlanValidationError):
            Operation(OperationCategory.PRODUCER, "Full  Table Scan")

    def test_is_valid_value(self):
        assert is_valid_value(None)
        assert is_valid_value("text")
        assert is_valid_value(3)
        assert not is_valid_value(object())


class TestPlanNode:
    def test_walk_preorder(self):
        plan = build_sample_plan()
        names = [n.operation.identifier for n in plan.root.walk()]
        assert names == ["Aggregate", "Hash Join", "Full Table Scan", "Index Scan"]

    def test_walk_postorder(self):
        plan = build_sample_plan()
        names = [n.operation.identifier for n in plan.root.walk_postorder()]
        assert names[-1] == "Aggregate"
        assert set(names) == {"Aggregate", "Hash Join", "Full Table Scan", "Index Scan"}

    def test_size_and_depth(self):
        plan = build_sample_plan()
        assert plan.root.size() == 4
        assert plan.root.depth() == 3

    def test_property_value_lookup(self):
        plan = build_sample_plan()
        scan = plan.root.find_operations("Full Table Scan")[0]
        assert scan.property_value("name object") == "t0"
        assert scan.property_value("missing", default="x") == "x"

    def test_count_categories(self):
        plan = build_sample_plan()
        counts = plan.root.count_categories()
        assert counts[OperationCategory.PRODUCER] == 2
        assert counts[OperationCategory.JOIN] == 1
        assert counts[OperationCategory.FOLDER] == 1

    def test_copy_is_deep(self):
        plan = build_sample_plan()
        clone = plan.root.copy()
        clone.children[0].children[0].properties.clear()
        assert plan.root.children[0].children[0].properties

    def test_node_helper(self):
        created = node(OperationCategory.PRODUCER, "Full Table Scan")
        assert created.operation.category is OperationCategory.PRODUCER


class TestUnifiedPlan:
    def test_node_count_and_depth(self):
        plan = build_sample_plan()
        assert plan.node_count() == 4
        assert plan.depth() == 3

    def test_empty_plan(self):
        plan = UnifiedPlan()
        assert plan.node_count() == 0
        assert plan.depth() == 0
        assert plan.nodes() == []
        assert plan.count_categories()[OperationCategory.PRODUCER] == 0

    def test_all_properties_includes_plan_and_node(self):
        plan = build_sample_plan()
        identifiers = {prop.identifier for prop in plan.all_properties()}
        assert "Planning Time" in identifiers
        assert "name object" in identifiers

    def test_plan_property_value(self):
        plan = build_sample_plan()
        assert plan.plan_property_value("Planning Time") == 0.5
        assert plan.plan_property_value("missing") is None

    def test_operations_in_category(self):
        plan = build_sample_plan()
        producers = plan.operations_in(OperationCategory.PRODUCER)
        assert len(producers) == 2

    def test_leaf_nodes(self):
        plan = build_sample_plan()
        assert len(plan.leaf_nodes()) == 2

    def test_dict_roundtrip(self):
        plan = build_sample_plan()
        restored = UnifiedPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()

    def test_count_property_categories(self):
        plan = build_sample_plan()
        counts = plan.count_property_categories()
        assert counts[PropertyCategory.CONFIGURATION] == 3
        assert counts[PropertyCategory.STATUS] == 1
        assert counts[PropertyCategory.CARDINALITY] == 1

    def test_a_dropped_plan_is_freed_without_the_cycle_collector(self):
        """Observed lists point at their owner's cache, not at the owner, so
        a plan holds no reference cycle: reference counting frees it."""
        plan = build_sample_plan()
        plan.fingerprint()
        probes = [weakref.ref(plan)] + [weakref.ref(each) for each in plan.nodes()]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del plan
            assert all(probe() is None for probe in probes)
        finally:
            if enabled:
                gc.enable()

    def test_mutation_invalidates_through_rebuilt_lists_and_caches(self):
        plan = build_sample_plan()
        scan = plan.root.find_operations("Full Table Scan")[0]
        original = plan.fingerprint()
        scan.properties = list(scan.properties)  # re-wrapped for this node
        scan.properties.append(Property(PropertyCategory.STATUS, "Loops", 2))
        plan.root.invalidate_fingerprints()
        changed = plan.fingerprint()
        assert changed != original
        scan._fp_cache = {}  # the lists follow a replaced cache
        scan.fingerprint()
        scan.properties.pop()
        assert scan._fp_cache == {}
        plan.properties = plan.properties  # the plan's own list is kept
        plan.fingerprint()
        plan.properties.append(Property(PropertyCategory.STATUS, "Workers", 2))
        assert plan._fp_cache == {}

    def test_merge_property_lists_keeps_first(self):
        first = [Property(PropertyCategory.COST, "Total Cost", 1)]
        second = [Property(PropertyCategory.COST, "Total Cost", 2),
                  Property(PropertyCategory.COST, "Startup Cost", 0)]
        merged = merge_property_lists(first, second)
        values = {prop.identifier: prop.value for prop in merged}
        assert values == {"Total Cost": 1, "Startup Cost": 0}


class TestPlanBuilder:
    def test_two_roots_rejected(self):
        builder = PlanBuilder().operation(OperationCategory.PRODUCER, "Full Table Scan")
        with pytest.raises(PlanValidationError):
            builder.operation(OperationCategory.PRODUCER, "Index Scan")

    def test_child_without_root_rejected(self):
        with pytest.raises(PlanValidationError):
            PlanBuilder().child(OperationCategory.PRODUCER, "Full Table Scan")

    def test_sibling_requires_parent(self):
        builder = PlanBuilder().operation(OperationCategory.PRODUCER, "Full Table Scan")
        with pytest.raises(PlanValidationError):
            builder.sibling(OperationCategory.PRODUCER, "Index Scan")

    def test_prop_before_root_goes_to_plan(self):
        plan = PlanBuilder().prop(PropertyCategory.STATUS, "Planning Time", 1).build()
        assert plan.properties[0].identifier == "Planning Time"

    def test_shorthands(self):
        plan = (
            PlanBuilder()
            .operation(OperationCategory.PRODUCER, "Full Table Scan")
            .cardinality("Estimated Rows", 5)
            .cost("Total Cost", 1.0)
            .configuration("Filter", "a < 1")
            .status("Actual Rows", 4)
            .build()
        )
        assert len(plan.root.properties) == 4
