"""Morsel-driven intra-operator parallelism: the exchange operator.

The vectorized executor already moves data in :class:`~repro.engine.vectorized.RowBatch`
chunks; this module fans those chunks — *morsels* — across a pool of
workers for the operators where per-chunk work is independent: seq-scan
filters, standalone filters, and the hash-join build.  The shape follows
EVA's queue-per-stage exchange-operator idiom (without the Ray
dependency): morsels are tagged with a sequence number and pushed onto an
input queue, one **stage-complete sentinel** per worker follows them, each
worker applies the stage function and emits ``(sequence, result)`` —
or the raised exception — onto the output queue, and the consumer drains
the queue until it has seen every worker's sentinel.

Determinism rules, proven by tests/test_parallel_equivalence.py and
tests/test_morsel_exchange.py against the serial vectorized oracle:

* Results are reassembled **by sequence number**, so operator output order
  is identical to the serial loop no matter which worker finished first.
* When stage calls fail, every morsel still runs to completion and the
  error with the **lowest sequence number** is re-raised — the same error a
  serial left-to-right loop would have surfaced first.
* The hash-join build merges per-morsel partial tables in morsel order, so
  every bucket's position list stays ascending — byte-identical to the
  serial build (and therefore to the row executor's bucket lists).

Workers are threads, not processes: morsels are zero-copy slices of shared
immutable snapshots, and the batch-compiled predicate closures are pure
per-call, so the engine-level pool trades GIL-bound CPU overlap for zero
serialization.  (Process-level parallelism lives one layer up, in
:mod:`repro.parallel` — whole campaign rounds per worker.)  Predicates that
embed subqueries stay on the serial path: subquery execution re-enters the
executor, which is not a thread-safe surface.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.vectorized import (
    RowBatch,
    VectorizedExecutor,
    _hash_buckets,
)
from repro.optimizer.physical import PhysicalNode
from repro.sqlparser import ast_nodes as ast

#: Rows per morsel: the parallel executor caps every batch at this size so
#: scans and filters have chunks to fan out (the serial engine is uncapped).
MORSEL_ROWS = 1024

#: Below this many total input rows a morsel fan-out costs more than the
#: stage itself; the serial path runs instead.
MORSEL_MIN_ROWS = 256

#: Hard cap on engine-level workers; morsel stages are GIL-bound Python,
#: so a few threads capture the available overlap.
MAX_MORSEL_WORKERS = 4


def default_morsel_workers() -> int:
    """The default exchange width for this machine (always >= 2, so the
    exchange machinery is exercised even on single-core hosts)."""
    return max(2, min(MAX_MORSEL_WORKERS, os.cpu_count() or 1))


def morsel_ranges(total: int, size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into contiguous ``(start, stop)`` morsels."""
    if total <= 0:
        return []
    size = max(1, size)
    return [(start, min(start + size, total)) for start in range(0, total, size)]


class _Sentinel:
    """Stage-complete marker; one per worker flows input -> output queue."""

    __slots__ = ()


_STAGE_COMPLETE = _Sentinel()


class MorselExchange:
    """Fan a stage function over a morsel sequence, deterministically.

    ``map(items, stage)`` behaves exactly like ``[stage(item) for item in
    items]`` — same results, same order, same first error — but runs the
    stage calls on ``workers`` threads.  The exchange is reusable and
    creates its worker threads per call (stages are short-lived; a
    persistent pool would have to outlive executors that are created per
    statement in places).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("MorselExchange needs at least one worker")
        self.workers = workers or default_morsel_workers()

    def map(self, items: Sequence[object], stage: Callable[[object], object]) -> List[object]:
        if not items:
            return []
        if len(items) == 1 or self.workers == 1:
            return [stage(item) for item in items]
        inputs: "queue.SimpleQueue" = queue.SimpleQueue()
        outputs: "queue.SimpleQueue" = queue.SimpleQueue()
        for sequence, item in enumerate(items):
            inputs.put((sequence, item))
        for _ in range(self.workers):
            inputs.put(_STAGE_COMPLETE)

        def worker() -> None:
            while True:
                task = inputs.get()
                if isinstance(task, _Sentinel):
                    # Propagate the stage-complete sentinel so the consumer
                    # knows this worker drained its share of the queue.
                    outputs.put(_STAGE_COMPLETE)
                    return
                sequence, item = task
                try:
                    outputs.put((sequence, False, stage(item)))
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    # Error propagation through the queue: the morsel's
                    # failure travels as a value; the worker keeps draining
                    # so every morsel is accounted for.
                    outputs.put((sequence, True, error))

        threads = [
            threading.Thread(target=worker, name=f"morsel-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        results: Dict[int, object] = {}
        errors: Dict[int, BaseException] = {}
        seen_sentinels = 0
        while seen_sentinels < len(threads):
            message = outputs.get()
            if isinstance(message, _Sentinel):
                seen_sentinels += 1
                continue
            sequence, failed, payload = message
            if failed:
                errors[sequence] = payload
            else:
                results[sequence] = payload
        for thread in threads:
            thread.join()
        if errors:
            # Deterministic error selection: the lowest-sequence failure is
            # what a serial left-to-right loop raises first.
            raise errors[min(errors)]
        return [results[sequence] for sequence in range(len(items))]


def _has_subquery(expression: Optional[ast.Expression]) -> bool:
    """Whether *expression* embeds a subquery (re-enters the executor)."""
    return any(
        isinstance(node, (ast.InSubquery, ast.ScalarSubquery, ast.Exists))
        for node in ast.iter_expressions(expression)
    )


class ParallelExecutor(VectorizedExecutor):
    """The vectorized executor with morsel-driven operator parallelism.

    Drop-in for :class:`VectorizedExecutor` (which is itself drop-in for
    the row oracle): identical results, row order, and ``EXPLAIN ANALYZE``
    counts.  Selected with ``executor="parallel"``; the serial vectorized
    engine is the correctness oracle (tests/test_parallel_equivalence.py).
    """

    def __init__(
        self,
        database,
        planner: Optional[object] = None,
        batch_size: int = MORSEL_ROWS,
        workers: Optional[int] = None,
        morsel_min_rows: int = MORSEL_MIN_ROWS,
    ) -> None:
        super().__init__(database, planner, batch_size)
        self.exchange = MorselExchange(workers)
        self.morsel_min_rows = morsel_min_rows

    # ------------------------------------------------------------------ gating

    def _exchange_worthwhile(self, batches: List[RowBatch]) -> bool:
        """Fan out only when there are >= 2 morsels of meaningful size."""
        if len(batches) < 2:
            return False
        return sum(batch.length for batch in batches) >= self.morsel_min_rows

    # ------------------------------------------------------------------ filters

    def _apply_filter(
        self, node: PhysicalNode, key: str, batches: List[RowBatch]
    ) -> List[RowBatch]:
        from repro.engine.vectorized import _gather

        if not self._exchange_worthwhile(batches) or _has_subquery(
            node.info.get(key)
        ):
            return super()._apply_filter(node, key, batches)
        select = self._node_batch_predicate(node, key)

        def stage(batch: RowBatch) -> Optional[RowBatch]:
            selection = select(self._batch_context(batch))
            if len(selection) == batch.length:
                return batch
            if len(selection):
                return _gather(batch, selection)
            return None

        survivors = self.exchange.map(batches, stage)
        return [batch for batch in survivors if batch is not None]

    # ------------------------------------------------------------------ joins

    def _hash_build(
        self, right: RowBatch, right_keys: Optional[List[List[object]]]
    ) -> Dict[Tuple, List[int]]:
        if right_keys is None:
            return {}
        if right.length < max(self.morsel_min_rows, 2 * self.batch_size):
            return super()._hash_build(right, right_keys)
        ranges = morsel_ranges(right.length, self.batch_size)
        if len(ranges) < 2:
            return super()._hash_build(right, right_keys)

        def stage(bounds: Tuple[int, int]) -> Dict[Tuple, List[int]]:
            return _hash_buckets(right_keys, *bounds)

        build: Dict[Tuple, List[int]] = {}
        # Merge the partial tables in morsel order: morsels are contiguous
        # ascending position ranges, so every bucket list ends up sorted
        # ascending — byte-identical to the serial single-pass build.
        for partial in self.exchange.map(ranges, stage):
            for key, positions in partial.items():
                bucket = build.get(key)
                if bucket is None:
                    build[key] = positions
                else:
                    bucket.extend(positions)
        return build
