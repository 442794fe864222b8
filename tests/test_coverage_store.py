"""Tests for the persistent sharded coverage store, including the
cross-process battery: fingerprints persisted by one process must be
byte-identical when reloaded by another, merges must be exact set unions,
warm-started services must skip conversions, and an interrupted campaign
must resume to the same coverage as an uninterrupted one."""

import json
import os
import subprocess
import sys

import pytest

from repro.converters import ConverterHub
from repro.pipeline import (
    CoverageStore,
    PlanIngestService,
    PlanSource,
    shard_for,
    source_key_digest,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(script, *argv):
    """Run *script* in a fresh interpreter with src/ and the repo root
    importable, returning its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.check_output(
        [sys.executable, "-c", script, REPO_ROOT, *argv], env=env, text=True
    )


#: Preamble making ``tests.conftest`` corpus helpers importable in children.
CHILD_PREAMBLE = "import sys; sys.path.insert(0, sys.argv[1])\n"


def build_corpus():
    """The deterministic sample corpus (shared with subprocess children)."""
    from tests.conftest import build_sample_sources

    return build_sample_sources(40)


class TestStoreBasics:
    def test_add_contains_len(self):
        store = CoverageStore()
        assert store.add("ab" * 16)
        assert not store.add("ab" * 16)  # duplicate: not double-counted
        assert "ab" * 16 in store
        assert "cd" * 16 not in store
        assert len(store) == 1

    def test_metadata_merges_field_wise(self):
        store = CoverageStore()
        store.add("ff" * 16, {"d": "mysql"})
        store.add("ff" * 16, {"d": "tidb", "s": "deadbeef"})
        meta = store.get("ff" * 16)
        assert meta == {"d": "mysql", "s": "deadbeef"}  # existing fields win

    def test_sharding_by_fingerprint_prefix(self):
        store = CoverageStore(shard_count=8)
        fingerprints = [f"{value:04x}" + "0" * 28 for value in range(64)]
        for fingerprint in fingerprints:
            store.add(fingerprint)
        snapshot = store.snapshot()
        assert sum(snapshot.shard_sizes) == len(fingerprints)
        assert all(size > 0 for size in snapshot.shard_sizes)  # spread out
        for fingerprint in fingerprints:
            assert shard_for(fingerprint, 8) == int(fingerprint[:4], 16) % 8

    def test_non_hex_keys_still_route(self):
        assert 0 <= shard_for("round:mysql:1", 16) < 16

    def test_snapshot_per_dbms(self):
        store = CoverageStore()
        store.add("aa" * 16, {"d": "mysql"})
        store.add("bb" * 16, {"d": "mysql"})
        store.add("cc" * 16, {"d": "tidb"})
        snapshot = store.snapshot()
        assert snapshot.per_dbms == {"mysql": 2, "tidb": 1}
        assert snapshot.entries == 3

    def test_source_index(self):
        store = CoverageStore()
        digest = source_key_digest("postgresql", "json", "ab" * 20)
        assert store.lookup_source(digest) is None
        assert store.map_source(digest, "aa" * 16)
        assert not store.map_source(digest, "aa" * 16)
        assert store.lookup_source(digest) == "aa" * 16
        assert store.source_count() == 1

    def test_marks(self):
        store = CoverageStore()
        assert not store.is_marked("round:mysql:1")
        assert store.mark("round:mysql:1")
        assert not store.mark("round:mysql:1")
        assert store.is_marked("round:mysql:1")
        assert store.marks() == {"round:mysql:1"}


class TestMergeSemantics:
    def test_merge_is_exact_union(self):
        left = CoverageStore()
        right = CoverageStore()
        for fingerprint in ("aa" * 16, "bb" * 16):
            left.add(fingerprint)
        for fingerprint in ("bb" * 16, "cc" * 16):
            right.add(fingerprint)
        added = left.merge(right)
        assert added == 1  # only cc was new: no double-count
        assert len(left) == 3
        assert left.merge(right) == 0  # idempotent
        assert len(left) == 3

    def test_merge_carries_sources_and_marks(self):
        left, right = CoverageStore(), CoverageStore()
        right.add("aa" * 16, {"d": "mysql"})
        right.map_source("d" * 32, "aa" * 16)
        right.mark("round:mysql:1")
        left.merge(right)
        assert left.lookup_source("d" * 32) == "aa" * 16
        assert left.is_marked("round:mysql:1")
        assert left.get("aa" * 16) == {"d": "mysql"}

    def test_merge_accepts_iterables_and_mappings(self):
        store = CoverageStore()
        assert store.merge(["aa" * 16, "bb" * 16]) == 2
        assert store.merge({"bb" * 16: {"d": "tidb"}, "cc" * 16: {}}) == 1
        assert len(store) == 3

    def test_merge_across_shard_counts(self):
        # Stores sharded differently still merge exactly: the shard layout
        # is a storage detail, not part of the coverage set's identity.
        coarse = CoverageStore(shard_count=2)
        fine = CoverageStore(shard_count=64)
        for value in range(100):
            fine.add(f"{value:04x}" + "f" * 28)
        assert coarse.merge(fine) == 100
        assert sorted(coarse.fingerprints()) == sorted(fine.fingerprints())


class TestPersistence:
    # The log contract (round trips, torn tails, mismatches, atomic save)
    # is tests/test_sharded_log.py's; only what the store adds stays here.

    def test_metadata_enrichment_is_durable_without_save(self, tmp_path):
        # Learning metadata for an already-covered fingerprint must survive
        # a reload even when no explicit save() follows the append.
        root = str(tmp_path / "s")
        with CoverageStore(root) as store:
            store.add("aa" * 16)
            store.add("aa" * 16, {"s": "bb" * 16})
            store.flush()
        loaded = CoverageStore.open(root)
        assert loaded.get("aa" * 16) == {"s": "bb" * 16}
        assert loaded.structural_fingerprints() == {"bb" * 16}


class TestCrossProcess:
    """The acceptance battery: coverage built in one process is exact in
    another."""

    INGEST_CHILD = CHILD_PREAMBLE + (
        "import json\n"
        "from tests.conftest import build_sample_sources\n"
        "from repro.converters import ConverterHub\n"
        "from repro.pipeline import PlanIngestService\n"
        "lo, hi = int(sys.argv[3]), int(sys.argv[4])\n"
        "sources = build_sample_sources(hi)[lo:hi]\n"
        "service = PlanIngestService(hub=ConverterHub(), persist_to=sys.argv[2])\n"
        "report = service.ingest_batch(sources)\n"
        "service.checkpoint()\n"
        "print(json.dumps({\n"
        "    'fingerprints': sorted(service.fingerprints()),\n"
        "    'conversions': report.conversions,\n"
        "    'unique': service.unique_plan_count(),\n"
        "}))\n"
    )

    def test_fingerprints_byte_identical_across_processes(self, tmp_path):
        child = json.loads(
            run_python(self.INGEST_CHILD, str(tmp_path / "store"), "0", "40")
        )
        # Reload the child's store in this process...
        loaded = CoverageStore.open(str(tmp_path / "store"))
        assert sorted(loaded.fingerprints()) == child["fingerprints"]
        # ...and rebuild the same corpus here: every fingerprint must be
        # byte-identical to what the other process computed and persisted.
        service = PlanIngestService(hub=ConverterHub())
        service.ingest_batch(build_corpus())
        assert sorted(service.fingerprints()) == child["fingerprints"]

    def test_merge_between_processes_is_exact_union(self, tmp_path):
        # Two processes each ingest an overlapping half of the corpus into
        # their own store; merging must be a union with no double-count.
        left = json.loads(
            run_python(self.INGEST_CHILD, str(tmp_path / "left"), "0", "25")
        )
        right = json.loads(
            run_python(self.INGEST_CHILD, str(tmp_path / "right"), "15", "40")
        )
        left_store = CoverageStore.open(str(tmp_path / "left"))
        right_store = CoverageStore.open(str(tmp_path / "right"))
        expected_union = sorted(
            set(left["fingerprints"]) | set(right["fingerprints"])
        )
        added = left_store.merge(right_store)
        assert sorted(left_store.fingerprints()) == expected_union
        assert added == len(expected_union) - len(left["fingerprints"])
        assert left_store.merge(right_store) == 0  # exactly once

    def test_warm_start_skips_conversions(self, tmp_path):
        child = json.loads(
            run_python(self.INGEST_CHILD, str(tmp_path / "store"), "0", "40")
        )
        assert child["conversions"] > 0  # the cold run really parsed
        # A fresh process (fresh hub, empty conversion cache) over the same
        # persisted store: the source index resolves every raw text without
        # parsing anything.
        service = PlanIngestService(hub=ConverterHub(), persist_to=str(tmp_path / "store"))
        report = service.ingest_batch(build_corpus())
        assert report.conversions == 0
        assert report.index_hits == 40
        assert report.new_fingerprints == 0
        assert service.unique_plan_count() == child["unique"]

    def test_resumed_campaign_matches_uninterrupted(self, tmp_path):
        # Acceptance: a campaign stopped after one round (its store
        # persisted by process 1) and resumed by process 2 ends with the
        # identical unique_plan_count / coverage set as an uninterrupted
        # run of the same configuration.
        from repro.testing.campaign import TestingCampaign

        config = dict(
            dbms_names=["postgresql", "mysql"],
            queries_per_dbms=25,
            cert_pairs_per_dbms=5,
        )
        uninterrupted = TestingCampaign(**config).run()

        campaign_child = CHILD_PREAMBLE + (
            "import json\n"
            "from repro.testing.campaign import TestingCampaign\n"
            "result = TestingCampaign(dbms_names=['postgresql', 'mysql'],\n"
            "                         queries_per_dbms=25, cert_pairs_per_dbms=5,\n"
            "                         persist_to=sys.argv[2], max_rounds=1).run()\n"
            "print(json.dumps({'completed': result.rounds_completed,\n"
            "                  'unique': result.unique_plans}))\n"
        )
        child = json.loads(run_python(campaign_child, str(tmp_path / "campaign")))
        assert child["completed"] == 1
        assert child["unique"] < uninterrupted.unique_plans  # genuinely partial

        resumed = TestingCampaign(
            persist_to=str(tmp_path / "campaign"), **config
        ).run()
        assert resumed.rounds_skipped == 1
        assert resumed.rounds_completed == 1
        assert resumed.unique_plans == uninterrupted.unique_plans
        assert resumed.plan_fingerprints == uninterrupted.plan_fingerprints
        # The skipped round's persisted results fold back in: the resumed
        # campaign reports the same Table V rows and counters, not just the
        # same coverage.
        assert resumed.queries_generated == uninterrupted.queries_generated
        assert resumed.cert_pairs_checked == uninterrupted.cert_pairs_checked
        assert resumed.table5_rows() == uninterrupted.table5_rows()

    def test_max_rounds_requires_durable_store(self):
        from repro.testing.campaign import TestingCampaign

        with pytest.raises(ValueError):
            TestingCampaign(dbms_names=["postgresql"], max_rounds=1)


class TestServiceStoreIntegration:
    def test_service_records_structural_metadata(self, tiny_corpus):
        service = PlanIngestService(hub=ConverterHub())
        report = service.ingest_batch(tiny_corpus)
        for entry in report.entries:
            meta = service.coverage.get(entry.fingerprint)
            assert meta is not None
            assert meta["d"] == "postgresql"
            assert isinstance(meta["s"], str) and meta["s"]

    def test_unique_plan_count_includes_loaded_coverage(self, tmp_path, tiny_corpus):
        first = PlanIngestService(hub=ConverterHub(), persist_to=str(tmp_path / "s"))
        first.ingest_batch(tiny_corpus)
        unique = first.unique_plan_count()
        first.checkpoint()
        second = PlanIngestService(hub=ConverterHub(), persist_to=str(tmp_path / "s"))
        assert second.unique_plan_count() == unique  # before any ingest
        assert second.plan_for(second.fingerprints()[0]) is None  # index-only

    def test_plan_parsed_behind_an_index_hit_is_retained(self, tmp_path, tiny_corpus):
        # A batch may hold an index-hit entry (no plan object) and a
        # not-yet-indexed source that parses to the same fingerprint; the
        # parsed representative must land in plan_for() regardless of order.
        first = PlanIngestService(hub=ConverterHub(), persist_to=str(tmp_path / "s"))
        first.ingest_batch(tiny_corpus[:1])
        first.checkpoint()
        first.close()
        warm = PlanIngestService(hub=ConverterHub(), persist_to=str(tmp_path / "s"))
        variant = PlanSource(
            tiny_corpus[0].dbms, tiny_corpus[0].text + "\n", "json"
        )  # different source hash, identical parsed plan
        report = warm.ingest_batch([tiny_corpus[0], variant])
        assert report.entries[0].from_index and report.entries[0].plan is None
        fingerprint = report.entries[0].fingerprint
        assert report.entries[1].fingerprint == fingerprint
        assert warm.plan_for(fingerprint) is not None
        assert warm.plan_for(fingerprint).fingerprint() == fingerprint

    def test_explicit_coverage_store_is_shared(self, tiny_corpus):
        store = CoverageStore()
        a = PlanIngestService(hub=ConverterHub(), coverage=store)
        b = PlanIngestService(hub=ConverterHub(), coverage=store)
        a.ingest_batch(tiny_corpus)
        report = b.ingest_batch(tiny_corpus)
        # b's fresh hub can't serve cache hits, but the shared store means
        # nothing is new and (via the source index) nothing converts.
        assert report.new_fingerprints == 0
        assert report.conversions == 0
        assert b.unique_plan_count() == a.unique_plan_count()
