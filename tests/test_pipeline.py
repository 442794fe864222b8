"""Tests for the plan pipeline: canonicalization, fingerprints, the converter
hub, and the batched ingestion service."""

import json
import os
import subprocess
import sys

import pytest

from repro.converters import ConverterHub, available_converters, converter_for, default_hub
from repro.core import (
    Operation,
    OperationCategory,
    PlanBuilder,
    PlanNode,
    Property,
    PropertyCategory,
    UnifiedPlan,
    identifier_pool,
    plans_equal,
    structural_fingerprint,
)
from repro.core.caching import LRUCache
from repro.dialects import create_dialect
from repro.pipeline import PlanIngestService, PlanSource


def sample_plan(flag="a") -> UnifiedPlan:
    return (
        PlanBuilder(source_dbms="mysql")
        .operation(OperationCategory.COMBINATOR, "Sort")
        .cost("Total Cost", 9.5)
        .configuration("Sort Key", flag)
        .child(OperationCategory.PRODUCER, "Full Table Scan")
        .configuration("name object", "t0")
        .end()
        .plan_prop(PropertyCategory.STATUS, "Planner", "v1")
        .build()
    )


class TestCanonicalization:
    def test_property_order_does_not_affect_fingerprint(self):
        left = sample_plan()
        right = sample_plan()
        right.root.properties.reverse()
        right.properties.reverse()
        assert left.root.properties != right.root.properties
        assert left.fingerprint() == right.fingerprint()

    def test_canonicalize_orders_properties_by_category_order(self):
        node = PlanNode(Operation(OperationCategory.PRODUCER, "Index Scan"))
        node.add_property(PropertyCategory.STATUS, "Actual Time", 1.0)
        node.add_property(PropertyCategory.CARDINALITY, "Estimated Rows", 5)
        node.add_property(PropertyCategory.COST, "Total Cost", 2.5)
        canonical = node.canonicalize()
        categories = [prop.category for prop in canonical.properties]
        assert categories == [
            PropertyCategory.CARDINALITY,
            PropertyCategory.COST,
            PropertyCategory.STATUS,
        ]

    def test_canonicalize_preserves_fingerprint_and_child_order(self):
        plan = sample_plan()
        canonical = plan.canonicalize()
        assert canonical.fingerprint() == plan.fingerprint()
        assert canonical.is_canonical()
        assert [n.operation for n in canonical.nodes()] == [
            n.operation for n in plan.nodes()
        ]

    def test_sort_children_normalizes_sibling_order(self):
        def two_children(order):
            root = PlanNode(Operation(OperationCategory.JOIN, "Hash Join"))
            for name in order:
                root.add_child(PlanNode(Operation(OperationCategory.PRODUCER, name)))
            return UnifiedPlan(root=root)

        forward = two_children(["Full Table Scan", "Index Scan"])
        backward = two_children(["Index Scan", "Full Table Scan"])
        assert forward.fingerprint() != backward.fingerprint()
        assert (
            forward.canonicalize(sort_children=True).fingerprint()
            == backward.canonicalize(sort_children=True).fingerprint()
        )


class TestFingerprintCache:
    def test_mutation_through_helpers_invalidates(self):
        plan = sample_plan()
        before = plan.fingerprint()
        plan.root.add_child(PlanNode(Operation(OperationCategory.EXECUTOR, "Gather")))
        assert plan.fingerprint() != before

    def test_direct_list_mutation_invalidates_owner(self):
        plan = sample_plan()
        before = plan.fingerprint()
        plan.root.children.append(
            PlanNode(Operation(OperationCategory.EXECUTOR, "Gather"))
        )
        assert plan.fingerprint() != before

    def test_root_reassignment_invalidates(self):
        plan = sample_plan()
        before = plan.fingerprint()
        plan.root = PlanNode(Operation(OperationCategory.EXECUTOR, "Result"))
        assert plan.fingerprint() != before

    def test_plan_property_mutation_invalidates(self):
        plan = sample_plan()
        before = plan.fingerprint()
        plan.add_property(PropertyCategory.STATUS, "Workers Planned", 2)
        assert plan.fingerprint() != before

    def test_copy_carries_cache_and_equality(self):
        plan = sample_plan()
        original = plan.fingerprint()
        twin = plan.copy()
        assert twin.fingerprint() == original
        assert plans_equal(plan, twin)
        assert hash(plan) == hash(twin)

    def test_source_dbms_and_query_do_not_affect_identity(self):
        left = sample_plan()
        right = sample_plan()
        right.source_dbms = "tidb"
        right.query = "SELECT 1"
        assert plans_equal(left, right)

    def test_fingerprint_stable_across_processes(self):
        plan = sample_plan()
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tests.test_pipeline import sample_plan\n"
            "from repro.core.compare import structural_fingerprint\n"
            "plan = sample_plan()\n"
            "print(plan.fingerprint()); print(structural_fingerprint(plan))\n"
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        output = subprocess.check_output(
            [sys.executable, "-c", script, repo_root], env=env, text=True
        ).split()
        assert output[0] == plan.fingerprint()
        assert output[1] == structural_fingerprint(plan)

    def test_plans_usable_as_dict_keys(self):
        index = {sample_plan(): "first"}
        assert index[sample_plan().copy()] == "first"


class TestInterning:
    def test_identifiers_share_one_string_object(self):
        a = Operation(OperationCategory.PRODUCER, "Full" + " Table Scan")
        b = Operation(OperationCategory.PRODUCER, "Full Table " + "Scan")
        assert a.identifier is b.identifier

    def test_property_identifiers_interned(self):
        a = Property(PropertyCategory.COST, "Total" + " Cost", 1)
        b = Property(PropertyCategory.COST, "Total Cost", 2)
        assert a.identifier is b.identifier
        assert "Total Cost" in identifier_pool()


class TestLRUCache:
    def test_eviction_and_stats(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert 0.0 < cache.stats.hit_rate < 1.0


class TestConverterHub:
    def test_alias_resolution(self, hub):
        assert hub.resolve_name("postgres") == "postgresql"
        assert hub.resolve_name("PG") == "postgresql"
        assert hub.resolve_name("mssql") == "sqlserver"
        assert converter_for("mongo").dbms == "mongodb"

    def test_conversion_cached_by_source_hash(self, hub, pg_raw):
        first = hub.convert("postgresql", pg_raw, "json")
        second = hub.convert("postgresql", pg_raw, "json")
        assert first is second  # shared frozen plan
        assert hub.cache_stats.hits == 1
        assert hub.cache_stats.misses == 1
        assert hub.is_cached("postgresql", pg_raw, "json")

    def test_cached_plans_have_precomputed_fingerprints(self, hub, pg_raw):
        plan = hub.convert("postgresql", pg_raw, "json")
        assert plan._fp_cache  # fingerprint computed at conversion time

    def test_shared_converter_instances(self, hub):
        assert hub.converter("postgresql") is hub.converter("postgres")

    def test_default_hub_is_shared(self):
        assert default_hub() is default_hub()
        assert set(ConverterHub.dbms_names()) == set(available_converters())


class TestIngestService:
    def test_batch_converts_only_unique_sources(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        sources = sample_sources(1000)
        unique_texts = len({source.text for source in sources})
        report = service.ingest_batch(sources)
        assert len(report.entries) == 1000
        assert report.conversions == unique_texts
        assert report.cache_hits == 1000 - unique_texts
        assert service.stats.conversions == unique_texts
        assert service.stats.cache_hits == 1000 - unique_texts
        assert report.errors == 0

    def test_fingerprint_dedup_within_batch(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(sample_sources(50))
        firsts = [e for e in report.entries if e.duplicate_of is None]
        duplicates = [e for e in report.entries if e.duplicate_of is not None]
        assert len(firsts) == report.unique_fingerprints
        assert duplicates
        for entry in duplicates:
            original = report.entries[entry.duplicate_of]
            assert original.fingerprint == entry.fingerprint
            assert original.plan is entry.plan  # shared representative

    def test_dedup_across_batches(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        first = service.ingest_batch(sample_sources(40))
        second = service.ingest_batch(sample_sources(40))
        assert first.new_fingerprints > 0
        assert second.new_fingerprints == 0
        assert second.conversions == 0  # conversion cache already warm
        assert service.unique_plan_count() == first.unique_fingerprints

    def test_report_plans_are_deduplicated(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(sample_sources(30))
        plans = report.plans()
        assert len(plans) == report.unique_fingerprints
        assert len({plan.fingerprint() for plan in plans}) == len(plans)

    def test_per_dbms_stats(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(sample_sources(20))
        stats = report.per_dbms["postgresql"]
        assert stats.sources == 20
        assert stats.conversions + stats.cache_hits == 20
        assert stats.unique_plans == report.unique_fingerprints
        assert service.per_dbms_stats()["postgresql"].sources == 20

    def test_conversion_errors_are_captured(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        good = sample_sources(2)
        bad = PlanSource("postgresql", "definitely { not json", "json")
        report = service.ingest_batch(good + [bad])
        assert report.errors == 1
        assert report.entries[2].error
        assert not report.entries[2].ok
        assert report.entries[0].ok
        assert report.per_dbms["postgresql"].errors == 1

    def test_unknown_dbms_is_an_entry_error(self):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch([PlanSource("oracle", "whatever")])
        assert report.errors == 1
        assert "no converter registered" in report.entries[0].error

    def test_single_ingest(self, sample_sources):
        service = PlanIngestService(hub=ConverterHub())
        entry = service.ingest(sample_sources(1)[0])
        assert entry.ok and entry.converted
        again = service.ingest(entry.source)
        assert again.ok and not again.converted
        assert again.fingerprint == entry.fingerprint

    def test_threaded_batch_matches_sequential(self, sample_sources):
        sources = sample_sources(64)
        sequential = PlanIngestService(hub=ConverterHub(), max_workers=1)
        threaded = PlanIngestService(
            hub=ConverterHub(), max_workers=4, parallel_threshold=2
        )
        left = sequential.ingest_batch(sources)
        right = threaded.ingest_batch(sources)
        assert left.conversions == right.conversions
        assert left.unique_fingerprints == right.unique_fingerprints
        assert [e.fingerprint for e in left.entries] == [
            e.fingerprint for e in right.entries
        ]

    def test_mixed_dbms_batch(self, pg_dialect):
        pg = pg_dialect
        sqlite = create_dialect("sqlite")
        sqlite.execute("CREATE TABLE t0 (c0 INT, c1 INT)")
        sqlite.execute("INSERT INTO t0 (c0, c1) VALUES (1, 2)")
        sources = [
            PlanSource(
                "postgresql",
                pg.explain("SELECT c0 FROM t0 WHERE c1 < 2", format="json").text,
                "json",
            ),
            PlanSource("sqlite", sqlite.explain("SELECT c0 FROM t0 WHERE c1 < 2").text),
        ] * 3
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(sources)
        assert set(report.per_dbms) == {"postgresql", "sqlite"}
        assert report.conversions == 2
        assert report.per_dbms["postgresql"].conversions == 1
        assert report.per_dbms["sqlite"].conversions == 1


class TestFrozenPlanContract:
    """The documented frozen-plan invariant, tested as behaviour.

    Plans returned by the hub/service are shared — between duplicate batch
    entries, with the conversion cache, and with the service's coverage
    index.  The contract (see ``repro/pipeline/ingest.py``): mutating a
    returned plan without ``copy()`` invalidates its cached fingerprints,
    so the recomputed fingerprint diverges from the index key the plan is
    filed under, corrupting deduplication for every sharer.  Consumers that
    need to mutate must ``copy()`` first.
    """

    def test_mutation_invalidates_the_returned_fingerprint(self, tiny_corpus):
        service = PlanIngestService(hub=ConverterHub())
        entry = service.ingest(tiny_corpus[0])
        assert entry.plan.fingerprint() == entry.fingerprint
        entry.plan.root.add_child(
            PlanNode(Operation(OperationCategory.EXECUTOR, "Gather"))
        )
        # The invariant: in-place mutation does not go unnoticed — the
        # plan's identity visibly diverges from the fingerprint it was
        # ingested under (rather than silently keeping the stale digest).
        assert entry.plan.fingerprint() != entry.fingerprint

    def test_mutation_without_copy_corrupts_shared_state(self, tiny_corpus):
        service = PlanIngestService(hub=ConverterHub())
        entry = service.ingest(tiny_corpus[0])
        shared = service.plan_for(entry.fingerprint)
        assert shared is entry.plan  # the index holds the same object
        entry.plan.root.add_child(
            PlanNode(Operation(OperationCategory.EXECUTOR, "Gather"))
        )
        # The corruption the contract warns about: the indexed plan no
        # longer hashes to the fingerprint it is filed under, and the
        # conversion cache now returns the mutated object for the original
        # raw text.
        assert service.plan_for(entry.fingerprint).fingerprint() != entry.fingerprint
        resurfaced = service.ingest(tiny_corpus[0])
        assert resurfaced.plan is entry.plan

    def test_copy_isolates_mutation(self, tiny_corpus):
        service = PlanIngestService(hub=ConverterHub())
        entry = service.ingest(tiny_corpus[0])
        twin = entry.plan.copy()
        twin.root.add_child(
            PlanNode(Operation(OperationCategory.EXECUTOR, "Gather"))
        )
        assert twin.fingerprint() != entry.fingerprint
        # The shared original (and therefore the index) is untouched.
        assert entry.plan.fingerprint() == entry.fingerprint
        assert service.plan_for(entry.fingerprint).fingerprint() == entry.fingerprint

    def test_mutation_below_fingerprinted_ancestor_needs_invalidate(self, tiny_corpus):
        service = PlanIngestService(hub=ConverterHub())
        plan = service.ingest(tiny_corpus[0]).plan.copy()
        before = plan.fingerprint()
        leaf = plan.leaf_nodes()[0]
        # Mutating a descendant clears only the descendant's cache; the
        # already-fingerprinted ancestors keep their digests until
        # invalidate_fingerprints() is called on the outermost tree.
        leaf.add_property(PropertyCategory.CONFIGURATION, "Extra Flag", True)
        assert plan.fingerprint() == before  # documented staleness
        plan.invalidate_fingerprints()
        assert plan.fingerprint() != before


class TestQPGIntegration:
    def test_qpg_uses_shared_ingest_service(self):
        from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
        from repro.testing.qpg import QPGConfig, QueryPlanGuidance

        service = PlanIngestService(hub=ConverterHub())
        dialect = create_dialect("postgresql")
        generator = RandomQueryGenerator(seed=7, config=GeneratorConfig(max_tables=2))
        qpg = QueryPlanGuidance(
            dialect,
            generator,
            config=QPGConfig(queries_per_round=40, run_tlp=False),
            ingest_service=service,
        )
        statistics = qpg.run()
        assert statistics.queries_generated == 40
        assert statistics.unique_plans == len(qpg.seen_fingerprints)
        assert service.stats.sources > 0
        assert service.stats.conversions <= service.stats.sources

    def test_campaign_reports_union_coverage_and_cache_stats(self):
        from repro.testing.campaign import TestingCampaign

        campaign = TestingCampaign(
            dbms_names=["postgresql"], queries_per_dbms=40, cert_pairs_per_dbms=10
        )
        result = campaign.run()
        assert result.unique_plans == len(result.plan_fingerprints)
        assert result.conversions > 0
        assert result.conversions + result.conversion_cache_hits >= result.queries_generated


class TestReviewRegressions:
    """Regressions for issues found in review: pickle/deepcopy staleness,
    alias-canonical dedup, bounded interning, XML value fidelity."""

    def test_deepcopy_does_not_carry_stale_fingerprints(self):
        import copy

        plan = sample_plan()
        original = plan.fingerprint()
        clone = copy.deepcopy(plan)
        assert clone.fingerprint() == original
        clone.root.properties.append(
            Property(PropertyCategory.STATUS, "Workers Planned", 2)
        )
        assert clone.fingerprint() != original
        assert plan.fingerprint() == original  # original untouched

    def test_pickle_round_trip_rewraps_lists(self):
        import pickle

        plan = sample_plan()
        original = plan.fingerprint()
        restored = pickle.loads(pickle.dumps(plan))
        assert restored.fingerprint() == original
        restored.root.children.append(
            PlanNode(Operation(OperationCategory.EXECUTOR, "Gather"))
        )
        assert restored.fingerprint() != original

    def test_alias_variants_dedupe_to_one_conversion(self, pg_raw):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(
            [
                PlanSource("postgresql", pg_raw, "json"),
                PlanSource("postgres", pg_raw, "json"),
                PlanSource("PG", pg_raw, "json"),
            ]
        )
        assert report.conversions == 1
        assert report.cache_hits == 2
        assert set(report.per_dbms) == {"postgresql"}
        assert report.per_dbms["postgresql"].unique_plans == 1
        assert service.per_dbms_stats()["postgresql"].unique_plans == 1

    def test_intern_pool_is_bounded(self):
        from repro.core import IdentifierPool

        pool = IdentifierPool(max_size=2)
        a = pool.intern("Alpha")
        b = pool.intern("Beta")
        c = pool.intern("Gamma")  # pool full: passes through un-pooled
        assert a == "Alpha" and b == "Beta" and c == "Gamma"
        assert len(pool) == 2
        assert "Gamma" not in pool
        assert pool.intern("Alpha") is a  # existing entries still shared

    def test_xml_preserves_padded_strings_and_inf(self):
        from repro.core import formats

        plan = UnifiedPlan()
        plan.add_property(PropertyCategory.CONFIGURATION, "Filter", "  padded  ")
        plan.add_property(PropertyCategory.COST, "Total Cost", float("inf"))
        restored = formats.deserialize(formats.serialize(plan, "xml"), "xml")
        values = {p.identifier: p.value for p in restored.properties}
        assert values["Filter"] == "  padded  "
        assert values["Total Cost"] == float("inf")
        assert restored.fingerprint() == plan.fingerprint()

    def test_fingerprint_separator_injection_has_no_collision(self):
        # A value embedding the framing marker and a forged property line
        # must not collide with the plan that really has two properties.
        forged = PlanNode(Operation(OperationCategory.PRODUCER, "Scan"))
        forged.add_property(
            PropertyCategory.COST, "A", "v\x01Cost->B=s:w"
        )
        real = PlanNode(Operation(OperationCategory.PRODUCER, "Scan"))
        real.add_property(PropertyCategory.COST, "A", "v")
        real.add_property(PropertyCategory.COST, "B", "w")
        assert forged.fingerprint() != real.fingerprint()

    def test_qpg_raises_conversion_error_for_unparsable_plans(self):
        from repro.errors import ConversionError
        from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
        from repro.testing.qpg import QueryPlanGuidance

        class BrokenDialect:
            name = "postgresql"

            def explain(self, query, format=None):
                class Output:
                    text = "{{{ not a plan"

                return Output()

        qpg = QueryPlanGuidance(
            BrokenDialect(),
            RandomQueryGenerator(seed=1, config=GeneratorConfig(max_tables=1)),
            ingest_service=PlanIngestService(hub=ConverterHub()),
        )
        with pytest.raises(ConversionError):
            qpg.observe_plan("SELECT 1")

    def test_extension_converter_wins_over_builtin_alias(self):
        from repro.converters.base import PlanConverter

        class SparkConverter(PlanConverter):
            dbms = "spark"
            formats = ("text",)

        assert ConverterHub.resolve_name("spark") == "sparksql"  # alias today
        ConverterHub.register(SparkConverter)
        try:
            assert ConverterHub.resolve_name("spark") == "spark"
            assert converter_for("spark").__class__ is SparkConverter
        finally:
            del ConverterHub._classes["spark"]
            ConverterHub._alias_names["spark"] = "sparksql"
            default_hub()._instances.pop("spark", None)
        assert ConverterHub.resolve_name("spark") == "sparksql"

    def test_campaign_counters_are_per_run(self):
        from repro.testing.campaign import TestingCampaign

        def run():
            return TestingCampaign(
                dbms_names=["postgresql"], queries_per_dbms=15, cert_pairs_per_dbms=5
            ).run()

        first, second = run(), run()
        assert first.conversions > 0
        # A fresh hub per campaign: the second run parses for itself instead
        # of inheriting the first run's warm process-wide cache.
        assert second.conversions == first.conversions

    def test_exotic_line_terminators_round_trip_all_formats(self):
        from repro.core import formats

        plan = UnifiedPlan()
        for index, value in enumerate(
            ["a\rb", "a\x0bb", "line1\nline2", "u v", "tab\there"]
        ):
            plan.add_property(PropertyCategory.CONFIGURATION, f"Weird {index}", value)
        for name in formats.parseable_formats():
            restored = formats.deserialize(formats.serialize(plan, name), name)
            assert restored.fingerprint() == plan.fingerprint(), name
            assert [p.value for p in restored.properties] == [
                p.value for p in plan.properties
            ], name

    def test_inplace_repeat_invalidates_fingerprint(self):
        node = PlanNode(Operation(OperationCategory.PRODUCER, "Scan"))
        node.add_child(PlanNode(Operation(OperationCategory.PRODUCER, "Index Scan")))
        before = node.fingerprint()
        children = node.children
        children *= 2
        assert len(node.children) == 2
        assert node.fingerprint() != before
