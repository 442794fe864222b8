"""Tests for the plan-similarity layer (repro.similarity) and its consumers.

Pins the subsystem's four contracts:

* embeddings are deterministic, content-pure, cached like fingerprints;
* PlanIndex queries are bit-identical with and without numpy and order
  deterministically by ``(distance, fingerprint)`` across shard layouts;
* persisted indexes resume campaigns (the log's own crash-safety contract
  is ``tests/test_sharded_log.py``);
* the consumers — QPG ``novelty="similarity"`` and report triage — are
  deterministic, and ``novelty="exact"`` campaigns are byte-identical to
  the pre-similarity behaviour whether trigger-plan capture is on or off.
"""

import json
import time

import pytest

from repro.core import (
    OperationCategory,
    PlanBuilder,
    PropertyCategory,
    UnifiedPlan,
    plan_distance,
    structural_fingerprint,
)
from repro.engine import arrays
from repro.errors import UnifiedPlanError
from repro.parallel import ShardedCampaign
from repro.similarity import (
    DEFAULT_CLUSTER_THRESHOLD,
    EMBEDDING_DIMENSIONS,
    PlanIndex,
    PlanIndexError,
    cluster_reports,
    cosine_distance,
    embed_plan,
)
from repro.similarity import triage
from repro.similarity.embedding import _OPERATION_DIMS, _PROPERTY_DIMS
from repro.testing import BugReport, TestingCampaign
from repro.testing.qpg import QPGConfig, QueryPlanGuidance


def build_plan(dbms="postgresql", query="SELECT 1", scans=1):
    builder = (
        PlanBuilder(source_dbms=dbms, query=query)
        .operation(OperationCategory.FOLDER, "Aggregate")
        .cardinality("Estimated Rows", 10)
        .child(OperationCategory.JOIN, "Hash Join")
        .configuration("Join Condition", "a = b")
    )
    for position in range(scans):
        builder = builder.child(
            OperationCategory.PRODUCER, "Full Table Scan"
        ).configuration("name object", f"t{position}").end()
    return (
        builder.end()
        .plan_prop(PropertyCategory.STATUS, "Planning Time", 0.5)
        .build()
    )


# ---------------------------------------------------------------- embedding


class TestEmbedding:
    def test_fixed_width_and_integer_valued(self):
        vector = embed_plan(build_plan())
        assert len(vector) == EMBEDDING_DIMENSIONS
        assert all(isinstance(value, float) for value in vector)
        assert all(value == int(value) and value >= 0 for value in vector)

    def test_deterministic_across_equal_plans(self):
        assert embed_plan(build_plan()) == embed_plan(build_plan())

    def test_content_pure_ignores_dbms_and_query(self):
        a = embed_plan(build_plan(dbms="mysql", query="SELECT 1"))
        b = embed_plan(build_plan(dbms="tidb", query="SELECT 2"))
        assert a == b

    def test_distinct_structures_embed_apart(self):
        a = embed_plan(build_plan(scans=1))
        b = embed_plan(build_plan(scans=3))
        assert a != b
        assert cosine_distance(a, b) > 0.0

    def test_layout_category_and_shape_dimensions(self):
        plan = build_plan(scans=2)  # Aggregate -> Hash Join -> 2 scans
        vector = embed_plan(plan)
        counts = plan.count_categories()
        from repro.core import OPERATION_CATEGORY_ORDER, PROPERTY_CATEGORY_ORDER

        for position, category in enumerate(OPERATION_CATEGORY_ORDER):
            assert vector[position] == float(counts[category])
        property_counts = plan.count_property_categories()
        for position, category in enumerate(PROPERTY_CATEGORY_ORDER):
            assert vector[_OPERATION_DIMS + position] == float(
                property_counts[category]
            )
        shape = _OPERATION_DIMS + _PROPERTY_DIMS
        assert vector[shape] == 4.0  # node count
        assert vector[shape + 1] == float(plan.depth())
        assert vector[shape + 2] == 2.0  # leaves
        assert vector[shape + 3] == 2.0  # max fan-out (the join)
        assert vector[shape + 4] == 2.0  # internal nodes

    def test_cached_on_plan_and_invalidated_by_mutation(self):
        plan = build_plan()
        first = embed_plan(plan)
        assert embed_plan(plan) is first  # memoised
        # Mutate the tree and invalidate, as the fingerprint contract
        # requires; the stale cached vector must not survive.
        plan.root.children[0].children.append(
            build_plan().root.children[0].children[0]
        )
        plan.invalidate_fingerprints()
        second = embed_plan(plan)
        assert second is not first
        assert second != first

    def test_survives_serialisation_roundtrip(self):
        from repro.core import UnifiedPlan

        plan = build_plan(scans=2)
        clone = UnifiedPlan.from_dict(plan.to_dict())
        assert embed_plan(clone) == embed_plan(plan)


# ---------------------------------------------------------------- distances


class TestCosineDistance:
    def test_self_distance_is_exactly_zero(self):
        vector = embed_plan(build_plan(scans=3))
        assert cosine_distance(vector, vector) == 0.0

    def test_zero_vector_rules(self):
        zero = (0.0,) * 4
        assert cosine_distance(zero, zero) == 0.0
        assert cosine_distance(zero, (1.0, 0.0, 0.0, 0.0)) == 1.0

    def test_orthogonal_vectors_at_distance_one(self):
        assert cosine_distance((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_width_mismatch_raises(self):
        with pytest.raises(PlanIndexError):
            cosine_distance((1.0,), (1.0, 2.0))


# ---------------------------------------------------------------- the index


class TestPlanIndex:
    def test_add_contains_get_len(self):
        index = PlanIndex()
        vector = embed_plan(build_plan())
        assert index.add("fp-a", vector) is True
        assert index.add("fp-a", vector) is False  # first write wins
        assert "fp-a" in index
        assert index.get("fp-a") == vector
        assert len(index) == 1

    def test_nearest_distance_of_empty_index_is_maximal(self):
        assert PlanIndex().nearest_distance(embed_plan(build_plan())) == 1.0

    def test_query_ties_break_by_fingerprint(self):
        index = PlanIndex()
        vector = embed_plan(build_plan())
        for fingerprint in ["bbb", "aaa", "ccc"]:
            index.add(fingerprint, vector)
        results = index.query(vector, k=3)
        assert [fingerprint for fingerprint, _ in results] == ["aaa", "bbb", "ccc"]
        assert all(distance == 0.0 for _, distance in results)

    def test_self_query_distance_never_negative(self):
        index = PlanIndex()
        for scans in range(1, 12):
            vector = embed_plan(build_plan(scans=scans))
            index.add(f"fp-{scans}", vector)
        for scans in range(1, 12):
            vector = embed_plan(build_plan(scans=scans))
            fingerprint, distance = index.nearest(vector)
            assert fingerprint == f"fp-{scans}"
            assert distance == 0.0

    def test_dimension_mismatch_raises(self):
        index = PlanIndex()
        index.add("fp", (1.0, 2.0))
        with pytest.raises(PlanIndexError):
            index.add("other", (1.0, 2.0, 3.0))
        with pytest.raises(PlanIndexError):
            index.query((1.0,))

    def test_query_order_independent_of_shard_layout(self):
        vectors = {
            f"fp-{scans:02d}": embed_plan(build_plan(scans=scans))
            for scans in range(1, 15)
        }
        probe = embed_plan(build_plan(scans=4))
        reference = None
        for shard_count in (1, 3, 16):
            index = PlanIndex(shard_count=shard_count)
            for fingerprint, vector in vectors.items():
                index.add(fingerprint, vector)
            results = index.query(probe, k=6)
            if reference is None:
                reference = results
            else:
                assert results == reference

    @pytest.mark.skipif(
        not arrays.numpy_available(), reason="requires numpy to compare paths"
    )
    def test_numpy_and_list_paths_bit_identical(self):
        # Above the dense threshold, numpy answers queries; the pure-list
        # fallback must return the *same bits*, not merely close floats.
        index = PlanIndex()
        for scans in range(1, 21):
            index.add(f"fp-{scans:02d}", embed_plan(build_plan(scans=scans)))
        index.add("fp-zero", (0.0,) * EMBEDDING_DIMENSIONS)
        probes = [embed_plan(build_plan(scans=scans)) for scans in range(1, 8)]
        probes.append((0.0,) * EMBEDDING_DIMENSIONS)
        arrays.set_numpy_enabled(True)
        with_numpy = [index.query(probe, k=5) for probe in probes]
        arrays.set_numpy_enabled(False)
        without_numpy = [index.query(probe, k=5) for probe in probes]
        assert with_numpy == without_numpy


# ---------------------------------------------------------------- QPG mode


def _make_qpg(novelty, seed=11):
    from repro.dialects import create_dialect
    from repro.testing.generator import GeneratorConfig, RandomQueryGenerator

    dialect = create_dialect("postgresql")
    generator = RandomQueryGenerator(
        seed=seed, config=GeneratorConfig(max_tables=2)
    )
    return QueryPlanGuidance(
        dialect,
        generator,
        config=QPGConfig(queries_per_round=40, novelty=novelty),
    )


class TestQPGSimilarityMode:
    def test_exact_mode_has_no_index(self):
        qpg = _make_qpg("exact")
        assert qpg.plan_index is None
        statistics = qpg.run()
        assert statistics.novelty_reward_total == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _make_qpg("fuzzy")

    def test_similarity_mode_rewards_and_indexes(self):
        qpg = _make_qpg("similarity")
        statistics = qpg.run()
        assert statistics.novelty_reward_total > 0.0
        assert len(qpg.plan_index) == len(qpg.seen_fingerprints)
        # Every indexed fingerprint was seen, and vice versa.
        assert set(qpg.plan_index) == qpg.seen_fingerprints

    def test_similarity_mode_deterministic_for_fixed_seed(self):
        first = _make_qpg("similarity")
        s1 = first.run()
        second = _make_qpg("similarity")
        s2 = second.run()
        assert s1.novelty_reward_total == s2.novelty_reward_total
        assert s1.unique_plans == s2.unique_plans
        assert s1.mutations_applied == s2.mutations_applied
        assert first.plan_index.to_payload() == second.plan_index.to_payload()

    def test_exact_mode_statistics_unaffected_by_similarity_machinery(self):
        # The stagnation policy differs between modes, so the runs differ —
        # but exact mode must behave as if the similarity layer did not
        # exist: two exact runs agree with each other bit for bit.
        s1 = _make_qpg("exact").run()
        s2 = _make_qpg("exact").run()
        assert vars(s1) == vars(s2)


# ---------------------------------------------------------------- triage


def _report(bug_id, plan=None, dbms="mysql"):
    return BugReport(
        dbms=dbms,
        found_by="QPG",
        bug_id=bug_id,
        status="Confirmed",
        severity="Critical",
        trigger_query="SELECT 1",
        trigger_plan=None if plan is None else plan.to_dict(),
    )


def _nested(depth, category="Producer"):
    """A plan-node payload *depth* scans deep; the innermost is of *category*."""
    scan = {"category": "Producer", "identifier": "Full Table Scan"}
    node = {"operation": dict(scan, category=category)}
    for _ in range(depth):
        node = {"operation": dict(scan), "children": [node]}
    return node


class TestClusterReports:
    def test_identical_plans_cluster_together(self):
        plan = build_plan()
        clusters = cluster_reports(
            [_report("1", plan), _report("2", plan), _report("3", plan)]
        )
        assert len(clusters) == 1
        assert len(clusters[0]) == 3
        assert clusters[0].exemplar in clusters[0].members

    def test_distant_plans_split(self):
        near = build_plan(scans=1)
        far = (
            PlanBuilder(source_dbms="mysql", query="q")
            .operation(OperationCategory.PRODUCER, "Full Table Scan")
            .build()
        )
        clusters = cluster_reports(
            [_report("1", near), _report("2", far)], threshold=0.05
        )
        assert len(clusters) == 2

    def test_planless_reports_are_singletons(self):
        plan = build_plan()
        clusters = cluster_reports(
            [_report("1", plan), _report("2"), _report("3", plan)]
        )
        sizes = sorted(len(cluster) for cluster in clusters)
        assert sizes == [1, 2]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda tree: tree["operation"].update(category="Bogus"),
            lambda tree: tree.update(children=5),
            lambda tree: tree.update(properties=5),
            lambda tree: tree.update(operation=None),
            lambda tree: tree["operation"].pop("identifier"),
            lambda tree: tree.update(children=[_nested(5000, category="Bogus")]),
        ],
        ids=["unknown-category", "children-type", "properties-type",
             "operation-none", "missing-identifier", "deep-unknown-category"],
    )
    def test_malformed_trigger_plan_is_typed_and_skipped(self, damage):
        plan = build_plan()
        payload = plan.to_dict()
        damage(payload["tree"])
        with pytest.raises(UnifiedPlanError) as caught:
            UnifiedPlan.from_dict(payload)
        assert caught.value.__cause__ is not None
        broken = _report("broken", plan)
        broken.trigger_plan = payload
        clusters = cluster_reports([_report("1", plan), broken, _report("2", plan)])
        assert sorted(len(cluster) for cluster in clusters) == [1, 2]
        assert [cluster.members for cluster in clusters if len(cluster) == 1] == [[broken]]

    def test_deep_plans_that_differ_at_the_leaf_cluster(self):
        # 300 levels: the exemplar rerank's edit distance runs between them.
        plan = build_plan()
        deep = [_report(leaf, plan) for leaf in ("Producer", "Folder")]
        for report in deep:
            report.trigger_plan = dict(plan.to_dict(), tree=_nested(300, category=report.bug_id))
        clusters = cluster_reports(deep)
        assert [cluster.members for cluster in clusters] == [deep]
        plans = [UnifiedPlan.from_dict(report.trigger_plan) for report in deep]
        assert plan_distance(*plans) == 1

    def test_deep_plans_of_one_structure_cluster(self):
        plan = build_plan()
        deep = [_report(bug_id, plan) for bug_id in ("a", "b")]
        for report in deep:
            report.trigger_plan = dict(plan.to_dict(), tree=_nested(5000))
        assert [UnifiedPlan.from_dict(report.trigger_plan).depth() for report in deep] == [5001] * 2
        clusters = cluster_reports([_report("1", plan), *deep, _report("2", plan)])
        assert [len(cluster) for cluster in clusters] == [2, 2]
        assert clusters[1].members == deep

    def test_differing_plans_past_the_rerank_budget_cluster_quickly(self):
        # Two 5 000-level plans that differ at the leaf would cost the edit
        # distance 50 M cells; the rerank skips it and falls back to the
        # (structural fingerprint, arrival) order.
        plan = build_plan()
        deep = [_report(leaf, plan) for leaf in ("Producer", "Folder")]
        for report in deep:
            report.trigger_plan = dict(plan.to_dict(), tree=_nested(5000, category=report.bug_id))
        started = time.perf_counter()
        clusters = cluster_reports(deep)
        assert time.perf_counter() - started < 2.0
        assert [cluster.members for cluster in clusters] == [deep]
        fingerprints = [
            structural_fingerprint(UnifiedPlan.from_dict(report.trigger_plan)) for report in deep
        ]
        assert clusters[0].exemplar is deep[fingerprints.index(min(fingerprints))]

    def test_rerank_runs_under_the_budget_and_not_past_it(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return plan_distance(a, b)

        monkeypatch.setattr(triage, "plan_distance", counting)
        reports = [
            _report("a", build_plan(scans=1)),
            _report("hub", build_plan(scans=2)),
            _report("b", build_plan(scans=3)),
        ]
        assert cluster_reports(reports, threshold=1.0)[0].exemplar.bug_id == "hub"
        assert len(calls) == 6
        monkeypatch.setattr(triage, "RERANK_CELL_BUDGET", 0)
        del calls[:]
        exemplar = cluster_reports(reports, threshold=1.0)[0].exemplar
        assert calls == []
        fingerprints = [
            structural_fingerprint(UnifiedPlan.from_dict(report.trigger_plan)) for report in reports
        ]
        assert exemplar is reports[fingerprints.index(min(fingerprints))]

    def test_exemplar_is_edit_distance_medoid(self):
        hub = build_plan(scans=2)  # between scans=1 and scans=3
        a = build_plan(scans=1)
        b = build_plan(scans=3)
        clusters = cluster_reports(
            [_report("a", a), _report("hub", hub), _report("b", b)],
            threshold=1.0,
        )
        assert len(clusters) == 1
        assert clusters[0].exemplar.bug_id == "hub"

    def test_deterministic_and_pure(self):
        reports = [
            _report(str(position), build_plan(scans=1 + position % 3))
            for position in range(6)
        ]
        snapshot = [dict(vars(report)) for report in reports]
        first = cluster_reports(reports)
        second = cluster_reports(reports)
        assert [c.members for c in first] == [c.members for c in second]
        assert [dict(vars(report)) for report in reports] == snapshot

    def test_threshold_zero_merges_only_identical_embeddings(self):
        clusters = cluster_reports(
            [
                _report("1", build_plan(scans=1)),
                _report("2", build_plan(scans=1)),
                _report("3", build_plan(scans=4)),
            ],
            threshold=0.0,
        )
        assert sorted(len(cluster) for cluster in clusters) == [1, 2]


# ---------------------------------------------------------------- campaigns


_SMALL = dict(queries_per_dbms=25, cert_pairs_per_dbms=10, bound_checks_per_dbms=5)


class TestCampaignIntegration:
    def test_exact_mode_inert_with_capture_on_or_off(self):
        on = TestingCampaign(**_SMALL).run()
        off = TestingCampaign(capture_trigger_plans=False, **_SMALL).run()
        assert on.table5_rows() == off.table5_rows()
        assert on.plan_fingerprints == off.plan_fingerprints
        assert on.unique_plans == off.unique_plans
        assert on.queries_generated == off.queries_generated
        assert on.conversions == off.conversions
        assert on.conversion_cache_hits == off.conversion_cache_hits
        assert on.novelty_reward_total == 0.0 and on.index_payload is None
        assert all(report.trigger_plan is not None for report in on.reports)
        assert all(report.trigger_plan is None for report in off.reports)

    def test_similarity_campaign_deterministic(self):
        a = TestingCampaign(novelty="similarity", **_SMALL).run()
        b = TestingCampaign(novelty="similarity", **_SMALL).run()
        assert a.novelty_reward_total == b.novelty_reward_total
        assert a.index_payload == b.index_payload
        assert a.table5_rows() == b.table5_rows()
        assert len(a.index_payload["entries"]) > 0
        for vector in a.index_payload["entries"].values():
            assert len(vector) == EMBEDDING_DIMENSIONS
        # Clustering partitions the reports: each lands in exactly one cluster.
        members = [(m.dbms, m.bug_id) for c in a.cluster_reports() for m in c.members]
        assert a.reports
        assert sorted(members) == sorted((r.dbms, r.bug_id) for r in a.reports)

    def test_sharded_similarity_equals_serial(self):
        serial = TestingCampaign(novelty="similarity", **_SMALL).run()
        sharded = ShardedCampaign(
            novelty="similarity", shards=2, parallel=False, **_SMALL
        ).run()
        assert sharded.table5_rows() == serial.table5_rows()
        assert sharded.plan_fingerprints == serial.plan_fingerprints
        assert sharded.novelty_reward_total == serial.novelty_reward_total
        assert sharded.index_payload == serial.index_payload
        # Cluster assignments are recomputed, never shipped — both sides
        # must agree exactly.
        key = lambda clusters: [
            [(m.dbms, m.bug_id) for m in c.members] for c in clusters
        ]
        assert key(sharded.cluster_reports()) == key(serial.cluster_reports())

    def test_reports_survive_payload_roundtrip_with_clusters_intact(self):
        # Satellite 6: first-wins folding and cluster assignment must
        # survive the JSON/pickle round-payload boundary.
        from repro.testing import fold_reports, report_from_payload

        result = TestingCampaign(novelty="similarity", **_SMALL).run()
        rows = [
            row
            for _, payload in sorted(result.round_payloads)
            for row in payload.get("reports", [])
        ]
        restored = fold_reports(
            [report_from_payload(json.loads(json.dumps(row))) for row in rows]
        )
        # Sort like the campaign does; the folded rows must then match the
        # campaign's reports exactly, captured plans included.
        order = {name: n for n, name in enumerate(["mysql", "postgresql", "tidb"])}
        restored.sort(
            key=lambda r: (order.get(r.dbms, 9), r.found_by != "QPG", r.bug_id)
        )
        assert [dict(vars(r)) for r in restored] == [
            dict(vars(r)) for r in result.reports
        ]
        key = lambda clusters: [
            [(m.dbms, m.bug_id) for m in c.members] for c in clusters
        ]
        assert key(cluster_reports(result.reports)) == key(
            cluster_reports(restored)
        )

    def test_unknown_fields_in_payload_are_dropped(self):
        from repro.testing import report_from_payload

        report = report_from_payload(
            {
                "dbms": "mysql",
                "found_by": "QPG",
                "bug_id": "1",
                "status": "Confirmed",
                "severity": "Critical",
                "from_the_future": {"x": 1},
            }
        )
        assert report.bug_id == "1"
        assert report.trigger_plan is None

    def test_similarity_resume_matches_uninterrupted(self, tmp_path):
        config = dict(novelty="similarity", **_SMALL)
        root = str(tmp_path / "resume")
        interrupted = TestingCampaign(
            persist_to=root, max_rounds=1, **config
        ).run()
        assert interrupted.rounds_completed == 1
        sidecar = PlanIndex.open(root)
        assert len(sidecar) == len(interrupted.index_payload["entries"])
        sidecar.close()
        resumed = TestingCampaign(persist_to=root, **config).run()
        reference = TestingCampaign(
            persist_to=str(tmp_path / "ref"), **config
        ).run()
        assert resumed.table5_rows() == reference.table5_rows()
        assert resumed.plan_fingerprints == reference.plan_fingerprints
        assert resumed.novelty_reward_total == reference.novelty_reward_total
        assert resumed.index_payload == reference.index_payload

    def test_exact_round_labels_unchanged_by_similarity_layer(self):
        # Pre-similarity stores must keep resuming: exact labels are frozen.
        campaign = TestingCampaign(**_SMALL)
        assert campaign._round_label(0, "mysql") == (
            "round:mysql:1:25:10:5"
        )
        similarity = TestingCampaign(novelty="similarity", **_SMALL)
        assert similarity._round_label(0, "mysql").startswith(
            "round:mysql:1:25:10:5:novelty=similarity"
        )

    def test_unknown_novelty_mode_rejected(self):
        with pytest.raises(ValueError):
            TestingCampaign(novelty="fuzzy")


# ---------------------------------------------------------------- distance


class TestPlanDistance:
    def test_zero_for_structurally_identical_plans(self):
        assert plan_distance(build_plan(), build_plan(dbms="mysql")) == 0

    def test_counts_edits(self):
        assert plan_distance(build_plan(scans=1), build_plan(scans=3)) == 2

    def test_child_order_invariant_by_default(self):
        left = (
            PlanBuilder(source_dbms="mysql", query="q")
            .operation(OperationCategory.JOIN, "Hash Join")
            .child(OperationCategory.PRODUCER, "Full Table Scan")
            .end()
            .child(OperationCategory.PRODUCER, "Index Scan")
            .end()
            .build()
        )
        right = (
            PlanBuilder(source_dbms="mysql", query="q")
            .operation(OperationCategory.JOIN, "Hash Join")
            .child(OperationCategory.PRODUCER, "Index Scan")
            .end()
            .child(OperationCategory.PRODUCER, "Full Table Scan")
            .end()
            .build()
        )
        # Structural fingerprints are child-order sensitive; the distance
        # canonicalizes children away by default.
        assert structural_fingerprint(left) != structural_fingerprint(right)
        assert plan_distance(left, right) == 0
        assert plan_distance(left, right, sort_children=False) > 0
