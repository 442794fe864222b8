"""Campaign-level parallelism: shard the rounds across a process pool.

A :class:`~repro.testing.campaign.TestingCampaign` is a sequence of
independent per-DBMS rounds: each round derives its generator seeds from
its *index* in the configured ``dbms_names`` list and starts its QPG
coverage walk from an empty per-round set (the per-round determinism
guarantee in :mod:`repro.testing.qpg`), so no round's behaviour depends on
which process runs it.  :class:`ShardedCampaign` exploits exactly that:

* The round index space is partitioned **round-robin** across ``shards``
  workers (:func:`shard_round_indexes`), so the DBMS list and the derived
  generator seed space are split without renumbering — shard *k* runs the
  rounds a serial campaign would have run at indexes ``k, k+shards, …``
  with byte-identical seeds.
* Each worker process runs a private :class:`TestingCampaign` — its own
  dialects, converter hub, and :class:`~repro.pipeline.CoverageStore` —
  over only its round indexes (``run(only_indexes=…)``), and ships the
  result plus the store's contents back as one picklable payload
  (:meth:`~repro.pipeline.coverage.CoverageStore.merge_payload`).
* The parent merges shard stores by exact set union and folds the
  per-round report payloads back together **in round-index order** before
  deduplication, so the merged coverage set *and* the Table V rows are
  byte-identical to the serial run's (tests/test_parallel_equivalence.py).
* With ``persist_to=`` every shard keeps a durable store under
  ``<root>/shard-NN`` using the PR-2 round-mark scheme, so a crashed or
  killed worker loses at most its in-flight round: re-running the sharded
  campaign (same configuration) resumes every shard from its marks and
  still merges to the serial-identical result.

Only conversion-economy *statistics* (``conversions`` /
``conversion_cache_hits``) are allowed to differ from the serial run: the
workers' private hubs cannot share first-conversion work across shards.
Everything semantically meaningful — coverage, ``unique_plans``, Table V,
query/pair counts — merges exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional

from repro.engine import arrays
from repro.pipeline.coverage import CoverageStore
from repro.similarity import PlanIndex
from repro.testing.campaign import CampaignResult, TestingCampaign

try:  # BrokenProcessPool location varies with Python version
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = OSError  # type: ignore[assignment,misc]

#: Errors that mean "this environment cannot run a process pool" (or the
#: pool died under us); the sharded campaign then runs its shards
#: sequentially in-process — same partitioning, same merge, same result.
_POOL_ERRORS = (BrokenProcessPool, OSError, PermissionError, RuntimeError)


def shard_round_indexes(total_rounds: int, shards: int) -> List[List[int]]:
    """Partition ``range(total_rounds)`` round-robin into *shards* lists.

    Empty shards are dropped, so the result has ``min(total_rounds,
    shards)`` entries; within each shard the indexes are ascending.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    partitions = [
        [index for index in range(total_rounds) if index % shards == shard]
        for shard in range(shards)
    ]
    return [partition for partition in partitions if partition]


def _run_shard(config: Dict[str, object]) -> CampaignResult:
    """Worker entry point: run one shard's rounds, return the result.

    Module-level (picklable by reference) so it works under every
    multiprocessing start method.  The parent's array-kernel toggle is
    re-applied explicitly rather than inherited from fork-time state, so
    numpy-on/off equivalence runs shard workers in the intended mode.
    """
    if arrays.numpy_available():
        arrays.set_numpy_enabled(bool(config.get("numpy_enabled", True)))
    campaign = TestingCampaign(**config["campaign"])  # type: ignore[arg-type]
    return campaign.run(
        only_indexes=config["indexes"], collect_store_payload=True
    )


class ShardedCampaign:
    """Run a testing campaign's rounds across a pool of worker processes.

    Takes the sharding knobs plus any :class:`TestingCampaign` keyword
    arguments, which are validated here by building the campaign once
    (:attr:`campaign`) and shipped unchanged to every shard except for
    ``persist_to``:

    ``shards``
        How many partitions the round index space splits into.
        ``shards=1`` degenerates to the serial campaign (one worker runs
        every round) — useful as the identity case of the equivalence
        matrix.
    ``parallel``
        ``False`` forces the shards to run sequentially in this process
        (no pool); the partitioning and merge are identical, so results
        do not change — this is also the automatic fallback wherever a
        process pool cannot be created.
    ``max_workers``
        Pool width; defaults to one worker per (non-empty) shard.

    ``persist_to=`` makes every shard durable under ``<root>/shard-NN``
    and the merged parent store under ``<root>/merged``; re-running the
    same configuration resumes each shard from its round marks.  In
    similarity mode the parent folds the per-round index payloads into a
    merged sidecar index, just as it folds coverage payloads into the
    merged store.
    """

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        shards: int = 2,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        **campaign: Any,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: The serial campaign the shards partition; never run itself.
        self.campaign = TestingCampaign(**campaign)
        self._campaign_arguments = campaign
        self.shards = shards
        self.parallel = parallel
        self.max_workers = max_workers
        #: Whether the last :meth:`run` actually used a process pool (False
        #: before any run, after the in-process fallback, or with
        #: ``parallel=False``).  Benchmarks gate speedup floors on this.
        self.pool_active = False

    # ------------------------------------------------------------------ plumbing

    def shard_dir(self, shard: int) -> Optional[str]:
        """The durable store directory for *shard* (None when in-memory)."""
        if self.campaign.persist_to is None:
            return None
        return os.path.join(self.campaign.persist_to, f"shard-{shard:02d}")

    def merged_dir(self) -> Optional[str]:
        """Where the merged parent store persists (None when in-memory)."""
        if self.campaign.persist_to is None:
            return None
        return os.path.join(self.campaign.persist_to, "merged")

    def _shard_configs(self) -> List[Dict[str, object]]:
        # The full dbms_names list goes to every shard, not the shard's
        # subset: round labels and seeds derive from list positions, which
        # must match the serial campaign's exactly.
        partitions = shard_round_indexes(len(self.campaign.dbms_names), self.shards)
        numpy_on = arrays.numpy_available() and arrays.numpy_enabled()
        return [
            {
                "shard": shard,
                "indexes": indexes,
                "numpy_enabled": numpy_on,
                "campaign": dict(self._campaign_arguments, persist_to=self.shard_dir(shard)),
            }
            for shard, indexes in enumerate(partitions)
        ]

    def _run_shards(self, configs: List[Dict[str, object]]) -> List[CampaignResult]:
        self.pool_active = False
        if self.parallel and len(configs) > 1:
            try:
                results = self._run_shards_pooled(configs)
                self.pool_active = True
                return results
            except _POOL_ERRORS:
                # Restricted environment or a worker died taking the pool
                # with it.  Durable shards already checkpointed their
                # completed rounds, so the sequential retry resumes them;
                # in-memory shards simply re-run — rounds are
                # deterministic, the result is the same either way.
                pass
        return [_run_shard(config) for config in configs]

    def _run_shards_pooled(
        self, configs: List[Dict[str, object]]
    ) -> List[CampaignResult]:
        workers = self.max_workers or len(configs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_shard, config) for config in configs]
            # Collect every shard before surfacing any failure, so the
            # successful workers' durable checkpoints are complete and a
            # re-run only repeats the failed shards' unfinished rounds.
            results: List[Optional[CampaignResult]] = []
            first_error: Optional[BaseException] = None
            for future in futures:
                try:
                    results.append(future.result())
                except BaseException as error:  # noqa: BLE001 - re-raised
                    results.append(None)
                    if first_error is None:
                        first_error = error
            if first_error is not None:
                raise first_error
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------ merge

    def _merged_store(self) -> CoverageStore:
        root = self.merged_dir()
        if root is None:
            return CoverageStore()
        # Re-opening an existing merged store and re-merging is safe:
        # the merge is exact set union, hence idempotent.
        return CoverageStore.open(root)

    def run(self) -> CampaignResult:
        """Run every shard and merge into one serial-identical result."""
        configs = self._shard_configs()
        shard_results = self._run_shards(configs)

        merged = CampaignResult()
        store = self._merged_store()
        merged_index = None
        if self.campaign.novelty == "similarity":
            # The merged sidecar index lives next to the merged store;
            # re-merging is safe for the same reason: first-wins set union
            # over content-derived vectors is idempotent.
            merged_index = PlanIndex(path=self.merged_dir())
        try:
            for result in shard_results:
                if result.store_payload is not None:
                    store.merge_payload(result.store_payload)
                merged.plan_fingerprints |= result.plan_fingerprints
                merged.rounds_completed += result.rounds_completed
                merged.rounds_skipped += result.rounds_skipped
                merged.conversions += result.conversions
                merged.conversion_cache_hits += result.conversion_cache_hits

            # Fold the per-round payloads back together in round-index
            # order — the serial campaign's accumulation order — so the
            # first-occurrence dedupe keeps exactly the rows the serial run
            # keeps.
            for index, payload in sorted(
                pair for result in shard_results for pair in result.round_payloads
            ):
                merged.add_round(index, payload)
                if merged_index is not None and "index" in payload:
                    merged_index.merge_payload(payload["index"])
            merged.finish(self.campaign.dbms_names, store)
            if store.path is not None:
                store.save()
            merged.store_payload = store.to_payload()
            if merged_index is not None:
                merged_index.flush()
                merged.index_payload = merged_index.to_payload()
        finally:
            if merged_index is not None:
                merged_index.close()
            store.close()
        return merged
