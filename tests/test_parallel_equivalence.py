"""Parallel runs must be byte-identical to serial runs.

Two layers of parallelism, one determinism contract:

* **Campaign level** — :class:`repro.parallel.ShardedCampaign` partitions
  the round index space across worker processes and merges shard stores +
  Table V reports.  The merged coverage set, ``unique_plans``, Table V
  rows, and query/pair counters must equal the serial
  :class:`~repro.testing.campaign.TestingCampaign`'s exactly — across
  shard counts, prepared-cache settings, numpy on/off, pool vs in-process
  fallback, and under worker crash + resume.
* **Operator level** — ``executor="parallel"``
  (:class:`~repro.engine.morsel.ParallelExecutor`) fans morsels across
  exchange workers; the serial vectorized engine is its oracle (see also
  tests/test_morsel_exchange.py for the exchange machinery itself, and
  tests/test_engine_config.py for serial campaigns under every executor).

The full (shards × cache × numpy) matrix and the kill-a-worker case are
marked ``slow`` — run them with ``--runslow`` — so tier-1 stays fast; the
unmarked tests still cover every mechanism once.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine import arrays
from repro.parallel import ShardedCampaign, shard_round_indexes
from repro.parallel.campaign import _run_shard
from repro.pipeline.coverage import CoverageStore
from repro.testing.campaign import TestingCampaign

#: Small but non-trivial: 4 DBMS rounds so a 4-shard split is total, with
#: enough queries that every round contributes coverage and bug reports.
CONFIG = dict(
    dbms_names=["postgresql", "mysql", "tidb", "sqlite"],
    seed=3,
    queries_per_dbms=18,
    cert_pairs_per_dbms=6,
)


def _serial(**overrides):
    settings = dict(CONFIG)
    settings.update(overrides)
    return TestingCampaign(**settings).run()


def _assert_identical(serial, merged):
    """The byte-identity contract between a serial and a merged result."""
    assert merged.plan_fingerprints == serial.plan_fingerprints
    assert merged.unique_plans == serial.unique_plans
    assert merged.table5_rows() == serial.table5_rows()
    assert merged.queries_generated == serial.queries_generated
    assert merged.cert_pairs_checked == serial.cert_pairs_checked


class TestShardPartitioning:
    def test_round_robin_covers_every_index_once(self):
        for total in range(0, 9):
            for shards in range(1, 7):
                partitions = shard_round_indexes(total, shards)
                flattened = sorted(
                    index for partition in partitions for index in partition
                )
                assert flattened == list(range(total))
                for partition in partitions:
                    assert partition == sorted(partition)
                    assert partition  # empty shards are dropped

    def test_shard_stride_matches_serial_seeds(self):
        # Shard k runs indexes k, k+shards, ... — the serial positions, so
        # the per-round seeds (seed + index) are untouched by sharding.
        assert shard_round_indexes(5, 2) == [[0, 2, 4], [1, 3]]
        assert shard_round_indexes(4, 4) == [[0], [1], [2], [3]]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_round_indexes(3, 0)
        with pytest.raises(ValueError):
            ShardedCampaign(shards=0)


class TestShardedEquivalence:
    """One pass through every mechanism (the slow matrix widens these)."""

    def test_two_shards_process_pool_identical(self):
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=2).run()
        _assert_identical(serial, merged)

    def test_four_shards_identical(self):
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=4).run()
        _assert_identical(serial, merged)
        # Four workers, four rounds: every shard completed exactly one.
        assert merged.rounds_completed == len(CONFIG["dbms_names"])

    def test_in_process_fallback_identical(self):
        # parallel=False is both a user knob and the automatic fallback
        # when the environment cannot fork a pool; the partition + merge
        # path is the same, so the result must not change.
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=3, parallel=False).run()
        _assert_identical(serial, merged)

    def test_more_shards_than_rounds_identical(self):
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=16, parallel=False).run()
        _assert_identical(serial, merged)

    def test_single_shard_degenerates_to_serial(self):
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=1, parallel=False).run()
        _assert_identical(serial, merged)
        assert merged.rounds_completed == serial.rounds_completed

    def test_merged_payload_matches_shard_union(self):
        merged = ShardedCampaign(**CONFIG, shards=2, parallel=False).run()
        assert merged.store_payload is not None
        store = CoverageStore()
        store.merge_payload(merged.store_payload)
        assert store.structural_fingerprints() == merged.plan_fingerprints

    def test_durable_shards_resume_after_interruption(self, tmp_path):
        # First pass: every shard stops after one completed round
        # (max_rounds is per shard), leaving durable marks behind.
        root = str(tmp_path / "sharded")
        partial = ShardedCampaign(
            **CONFIG, shards=2, persist_to=root, max_rounds=1, parallel=False
        ).run()
        assert partial.rounds_completed == 2  # one per shard
        # Resume with the full budget: the marked rounds are skipped, the
        # rest execute, and the merged result equals the serial run.
        merged = ShardedCampaign(
            **CONFIG, shards=2, persist_to=root, parallel=False
        ).run()
        assert merged.rounds_skipped == 2
        _assert_identical(_serial(), merged)

    def test_merged_store_persists_and_reopens(self, tmp_path):
        root = str(tmp_path / "sharded")
        campaign = ShardedCampaign(**CONFIG, shards=2, persist_to=root)
        merged = campaign.run()
        reopened = CoverageStore.open(campaign.merged_dir())
        try:
            assert reopened.structural_fingerprints() == merged.plan_fingerprints
            assert len(reopened) > 0
        finally:
            reopened.close()
        # Re-running over the same durable tree is a pure resume: every
        # round is skipped, the merged result is unchanged.
        again = ShardedCampaign(**CONFIG, shards=2, persist_to=root).run()
        assert again.rounds_completed == 0
        assert again.rounds_skipped == len(CONFIG["dbms_names"])
        _assert_identical(merged, again)


class TestParallelExecutorCampaign:
    def test_sharded_campaign_with_parallel_executor(self):
        # Both levels of parallelism composed: process-sharded rounds, each
        # worker running the morsel-driven engine.
        serial = _serial()
        merged = ShardedCampaign(**CONFIG, shards=2, executor="parallel").run()
        _assert_identical(serial, merged)


@pytest.mark.slow
class TestShardedEquivalenceMatrix:
    """The full (shard count × cache × numpy) grid from the determinism
    contract.  Heavy — this runs 12 sharded campaigns plus serial
    baselines — hence the ``slow`` marker."""

    @pytest.mark.parametrize("use_numpy", [False, True])
    @pytest.mark.parametrize("prepared_cache", [True, False])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matrix(self, shards, prepared_cache, use_numpy):
        if use_numpy and not arrays.numpy_available():
            pytest.skip("numpy not installed")
        arrays.set_numpy_enabled(use_numpy)
        serial = _serial(prepared_cache=prepared_cache)
        merged = ShardedCampaign(
            **CONFIG, shards=shards, prepared_cache=prepared_cache
        ).run()
        _assert_identical(serial, merged)


def _poll_for_round_file(directory, timeout=90.0):
    """Wait until a shard worker persists its first completed round."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.isdir(directory) and any(
            name.startswith("round-") and name.endswith(".json")
            for name in os.listdir(directory)
        ):
            return True
        time.sleep(0.02)
    return False


@pytest.mark.slow
class TestWorkerCrashResume:
    def test_kill_one_worker_and_resume(self, tmp_path):
        """SIGKILL a shard worker mid-campaign; a re-run must resume from
        its durable round marks and still merge serial-identical."""
        root = str(tmp_path / "sharded")
        campaign = ShardedCampaign(
            **dict(CONFIG, queries_per_dbms=40), shards=2, persist_to=root
        )
        victim_config = campaign._shard_configs()[0]
        context = multiprocessing.get_context()
        worker = context.Process(target=_run_shard, args=(victim_config,))
        worker.start()
        try:
            # Kill as soon as the worker checkpoints its first round, so
            # (with 2 rounds in this shard) the crash lands mid-campaign.
            saw_round = _poll_for_round_file(campaign.shard_dir(0))
            worker.kill()
        finally:
            worker.join()
        assert saw_round, "worker never completed a round before the kill"
        assert worker.exitcode != 0  # it really was killed, not finished

        store = CoverageStore.open(campaign.shard_dir(0))
        try:
            marks_after_kill = len(store.marks())
            assert marks_after_kill >= 1
        finally:
            store.close()

        merged = ShardedCampaign(
            **dict(CONFIG, queries_per_dbms=40), shards=2, persist_to=root
        ).run()
        # The killed worker's completed rounds were restored, not re-run.
        assert merged.rounds_skipped >= marks_after_kill
        serial = _serial(queries_per_dbms=40)
        _assert_identical(serial, merged)

    def test_round_payload_files_survive_for_restore(self, tmp_path):
        # The restore path feeds from the per-round JSON payloads; pin
        # their shape so a future format change cannot silently break
        # crash recovery.
        root = str(tmp_path / "sharded")
        campaign = ShardedCampaign(
            **CONFIG, shards=2, persist_to=root, parallel=False
        )
        campaign.run()
        for shard in (0, 1):
            directory = campaign.shard_dir(shard)
            payload_files = [
                name
                for name in os.listdir(directory)
                if name.startswith("round-") and name.endswith(".json")
            ]
            assert payload_files
            for name in payload_files:
                with open(os.path.join(directory, name)) as handle:
                    payload = json.load(handle)
                assert set(payload) == {
                    "reports",
                    "queries_generated",
                    "cert_pairs_checked",
                    "bound_queries_checked",
                    "unexpected_errors",
                }
