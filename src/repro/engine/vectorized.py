"""A columnar batch executor: MonetDB/X100-style vectorization for the engine.

The row executor (:class:`~repro.engine.executor.Executor`) materializes a
``List[Dict[str, object]]`` at every operator — one dictionary, one
:class:`~repro.engine.expressions.EvaluationContext`, and one closure call
per row per node.  The vectorized executor processes :class:`RowBatch`
chunks instead: parallel per-column value lists, fed by the heap tables'
cached columnar snapshots
(:meth:`~repro.storage.table.HeapTable.column_batch`) and filtered through
batch-compiled expressions with selection vectors
(:func:`~repro.engine.expressions.compile_predicate_batch`).

Design rules:

* **Drop-in** — :class:`VectorizedExecutor` subclasses :class:`Executor`
  and keeps its public API (``execute(plan, analyze=, outer_row=)`` returns
  row dictionaries); only the internals move to batches.
* **Per-node fallback** — operators without a batch implementation
  (subqueries, VALUES, RESULT, DML, DDL) and every operator evaluated under
  a correlated outer row run the inherited row handlers (an init-plan is
  evaluated with an empty outer row, so it stays on the batch path);
  batches and rows
  convert at the boundary (:func:`batches_from_rows` groups consecutive
  rows with identical key sets, so every batch is *uniform* and per-batch
  column resolution is exactly per-row resolution).
* **One batch per uniform run** — the serial executor does not cap
  batches: each operator emits its output as produced, one
  :class:`RowBatch` per run of rows sharing a key set, so no operator
  re-splits its output only for the next one to concatenate it again.
  ``batch_size=`` caps chunks for the morsel executor
  (:mod:`repro.engine.morsel` owns the morsel size) and for tests that
  drive the multi-batch paths.
* **Column at a time** — no operator indexes ``column[position]`` inside a
  per-row loop: keys and arguments are evaluated once per operator and
  factorised, probed, gathered or folded as whole columns (typed arrays
  through :mod:`repro.engine.arrays`, plain lists through ``zip``).
* **Scans emit what the statement reads** — a scan of a snapshot with at
  least ``arrays.ARRAY_MIN_ROWS`` rows keeps only the columns whose
  lower-cased name the statement references somewhere
  (:func:`_referenced_names`, computed once per plan root), so filters,
  joins and sorts gather two columns of a sixteen-column table, not all
  sixteen.  Every key a reference could resolve to keeps its place, so
  resolution picks the same key as before; a ``*`` anywhere keeps them all.
* **Static work once per plan** — compiled closures, column bindings,
  index bounds and a scan's emitted keys are cached on the (shared) plan
  nodes, so a hot plan pays per row, not per execution.
* **Oracle equivalence** — results, row order, and ``EXPLAIN ANALYZE``
  runtime row counts are identical to the row executor's
  (tests/test_vectorized_equivalence.py fuzzes this over the generator
  corpus); the row executor stays untouched as the correctness oracle.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.engine.executor import (
    Executor,
    Row,
    _HANDLERS,
    _ComparableKey,
    _equi_join_keys,
    _extract_bounds,
    _normalise_value,
    _semi_join_key,
    fold_aggregate,
)
from repro.engine import arrays
from repro.engine.expressions import (
    BatchContext,
    EvaluationContext,
    compile_expression_batch,
    compile_predicate_batch,
    evaluate,
)
from repro.errors import CatalogError, ExecutionError, StorageError
from repro.optimizer.physical import INIT_PLANS, OpKind, PhysicalNode
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.printer import print_expression
from repro.storage.index import sortable

_EMPTY_ROW: Row = {}

#: Marks a batch-compiled cache slot that holds no value yet (``None`` is a
#: value: no index bounds, no column pruning).
_MISSING = object()

_SCAN_KINDS = (OpKind.SEQ_SCAN, OpKind.INDEX_SCAN, OpKind.INDEX_ONLY_SCAN)


class RowBatch:
    """A uniform chunk of rows in columnar form.

    ``columns`` maps each row key to a value list; all lists are parallel
    and ``length`` long.  Every batch is *uniform*: all of its rows share
    the same key set, in the same order.  Batches are treated as immutable
    — operators build new column lists instead of mutating inputs, which
    lets scans hand out the cached table snapshot's lists directly.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, List[object]], length: int) -> None:
        self.columns = columns
        self.length = length

    def to_rows(self) -> List[Row]:
        """Materialize the chunk as (fresh) row dictionaries."""
        if not self.columns:
            return [{} for _ in range(self.length)]
        keys = list(self.columns)
        return [dict(zip(keys, values)) for values in zip(*self.columns.values())]

    def schema(self) -> Tuple[str, ...]:
        """The batch's key set, in column order."""
        return tuple(self.columns)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowBatch(columns={list(self.columns)}, length={self.length})"


def batches_from_rows(rows: List[Row], batch_size: Optional[int] = None) -> List[RowBatch]:
    """Chunk *rows* into uniform batches, preserving order.

    Consecutive rows with identical key lists share a batch (capped at
    *batch_size* when one is given); a run break starts a new batch, so
    heterogeneous row lists (e.g. positional UNIONs of different arities)
    round-trip exactly.
    """
    batches: List[RowBatch] = []
    run: List[Row] = []
    run_keys: Optional[List[str]] = None

    def flush() -> None:
        if run:
            columns = {key: [row[key] for row in run] for key in run_keys}
            batches.append(RowBatch(columns, len(run)))
            run.clear()

    for row in rows:
        keys = list(row)
        if keys != run_keys or (batch_size is not None and len(run) >= batch_size):
            flush()
            run_keys = keys
        run.append(row)
    flush()
    return batches


def rows_from_batches(batches: List[RowBatch]) -> List[Row]:
    """Materialize a batch list back into row dictionaries."""
    rows: List[Row] = []
    for batch in batches:
        rows.extend(batch.to_rows())
    return rows


def _gather(batch: RowBatch, positions) -> RowBatch:
    """A new batch holding *batch*'s rows at *positions* (in that order).

    *positions* may be a list or an ndarray selection vector; typed array
    columns gather via ``take``, plain lists by comprehension.
    """
    return RowBatch(
        {
            key: arrays.take_column(values, positions)
            for key, values in batch.columns.items()
        },
        len(positions),
    )


def _split(batch: RowBatch, batch_size: Optional[int]) -> List[RowBatch]:
    """Split *batch* into chunks of at most *batch_size* rows (no split
    without a cap)."""
    if batch_size is None or batch.length <= batch_size:
        return [batch] if batch.length else []
    return [
        RowBatch(
            {key: values[start : start + batch_size] for key, values in batch.columns.items()},
            min(batch_size, batch.length - start),
        )
        for start in range(0, batch.length, batch_size)
    ]


def _uniform_schema(batches: List[RowBatch]) -> bool:
    """Whether every batch shares one key set (the common case)."""
    if len(batches) <= 1:
        return True
    first = batches[0].schema()
    return all(batch.schema() == first for batch in batches[1:])


def _concat(batches: List[RowBatch]) -> RowBatch:
    """Concatenate uniform batches into one (callers check uniformity).

    Same-dtype array columns stay arrays (one ``np.concatenate``); anything
    else degrades to a plain list.
    """
    if not batches:
        return RowBatch({}, 0)
    if len(batches) == 1:
        return batches[0]
    columns: Dict[str, List[object]] = {
        key: arrays.concat_columns([batch.columns[key] for batch in batches])
        for key in batches[0].columns
    }
    total = sum(batch.length for batch in batches)
    return RowBatch(columns, total)


def _gather_global(
    batches: List[RowBatch], order: List[int], batch_size: Optional[int]
) -> List[RowBatch]:
    """Reorder rows across *batches* by global index (sorts, dedupes).

    With a uniform schema the gather is columnar; otherwise the rows are
    materialized, reordered as dictionaries, and re-chunked.
    """
    if not batches:
        return []
    if _uniform_schema(batches):
        combined = _concat(batches)
        return _split(_gather(combined, order), batch_size)
    rows = rows_from_batches(batches)
    return batches_from_rows([rows[g] for g in order], batch_size)


class VectorizedExecutor(Executor):
    """Executes physical plans over columnar batches.

    Drop-in for :class:`Executor`: identical public API, identical results
    and ``EXPLAIN ANALYZE`` row counts, batched internals.  Batches are
    uncapped unless *batch_size* is given.
    """

    #: Statements whose scans cover fewer total rows than this run on the
    #: inherited row path: per-statement snapshot/batch setup costs more
    #: than vectorization saves on tiny inputs.  Re-tune it against the
    #: ``campaign`` (1-60 row generator tables) and ``tpch_exec`` workloads
    #: of ``benchmarks/e2e/run.py``.
    ROW_PATH_THRESHOLD = 32

    def __init__(
        self,
        database,
        planner: Optional[object] = None,
        batch_size: Optional[int] = None,
        row_path_threshold: Optional[int] = None,
    ) -> None:
        super().__init__(database, planner)
        self.batch_size = batch_size
        self.row_path_threshold = (
            self.ROW_PATH_THRESHOLD if row_path_threshold is None else row_path_threshold
        )
        self._row_mode = 0

    # ------------------------------------------------------------------ dispatch

    def execute(
        self,
        plan: PhysicalNode,
        analyze: bool = False,
        outer_row: Optional[Row] = None,
    ) -> List[Row]:
        # Adaptive small-input routing: when every scan in the plan covers a
        # tiny table, the whole statement (including nested subquery
        # executions) runs on the inherited row path — which *is* the
        # oracle, so results, order, and ANALYZE counts stay identical.
        if not self._row_mode and self._prefers_row_path(plan):
            self._row_mode += 1
            try:
                return super().execute(plan, analyze=analyze, outer_row=outer_row)
            finally:
                self._row_mode -= 1
        return super().execute(plan, analyze=analyze, outer_row=outer_row)

    def _prefers_row_path(self, plan: PhysicalNode) -> bool:
        threshold = self.row_path_threshold
        if threshold <= 0:
            return False
        total = 0
        # Init-plans run with an empty outer row, so the batch handlers
        # serve them and their scans count toward the decision.  Per-row
        # subplans do not: under an outer row every operator takes the
        # inherited row handler whichever way the statement is routed.
        for node in plan.walk((INIT_PLANS,)):
            if node.kind in _SCAN_KINDS:
                table_name = node.info.get("table")
                if table_name is None:
                    return False
                try:
                    total += self.database.table(table_name).row_count
                except CatalogError:
                    return False
                if total >= threshold:
                    return False
        return True

    def _execute_node(self, node: PhysicalNode, analyze: bool, outer_row: Row) -> List[Row]:
        if self._row_mode:
            return Executor._execute_node(self, node, analyze, outer_row)
        # The batch↔row boundary: inherited row handlers (and the public
        # API) see rows, vectorized handlers exchange batches underneath.
        return rows_from_batches(self._execute_batches(node, analyze, outer_row))

    def _execute_batches(
        self, node: PhysicalNode, analyze: bool, outer_row: Row
    ) -> List[RowBatch]:
        started = time.perf_counter() if analyze else 0.0
        handler = _BATCH_HANDLERS.get(node.kind) if not outer_row else None
        if handler is not None:
            batches = handler(self, node, analyze)
        else:
            row_handler = _HANDLERS.get(node.kind)
            if row_handler is None:
                raise ExecutionError(f"no executor for operator {node.kind.value}")
            # Row fallback: the inherited handler pulls its children through
            # the overridden _execute_node above, so a non-vectorized node
            # composes with vectorized children at the boundary.
            rows = row_handler(self, node, analyze, outer_row)
            batches = batches_from_rows(rows, self.batch_size)
        if analyze:
            node.runtime.executed = True
            node.runtime.actual_rows = sum(batch.length for batch in batches)
            node.runtime.actual_time_ms = (time.perf_counter() - started) * 1000.0
            node.runtime.loops += 1
        return batches

    # ------------------------------------------------------------------ helpers

    def _batch_context(self, batch: RowBatch) -> BatchContext:
        return BatchContext(batch.columns, batch.length, self._run_subquery)

    def _node_batch_compiled(self, node: PhysicalNode, key: str, builder: Callable):
        """Per-(node, key) cache of batch-compiled artifacts.

        Plans are shared across executions by the prepared-query cache, so
        batch compilation — like the row path's compiled predicates — runs
        once per node and is reused by every later execution.
        """
        cache = getattr(node, "_batch_compiled", None)
        if cache is None:
            cache = {}
            node._batch_compiled = cache
        compiled = cache.get(key, _MISSING)
        if compiled is _MISSING:
            compiled = builder()
            cache[key] = compiled
        return compiled

    def _node_batch_predicate(self, node: PhysicalNode, key: str):
        return self._node_batch_compiled(
            node, key, lambda: compile_predicate_batch(node.info.get(key))
        )

    def _scalar_context(self) -> EvaluationContext:
        return EvaluationContext({}, self._run_subquery)

    # ------------------------------------------------------------------ producers

    def _table_snapshot(self, table):
        """The columnar snapshot scans read from.

        With a pinned :class:`~repro.catalog.database.DatabaseView` installed
        (the serving layer's snapshot isolation), scans read the view's
        snapshot of the table — the version the statement was planned
        against — even if writers have advanced the live database since.
        Without a view, behavior is unchanged: the table's cached snapshot
        of its current rows.
        """
        view = self.snapshot_view
        if view is not None:
            snapshot = view.get(table.schema.name)
            if snapshot is not None:
                return snapshot
        return table.column_batch()

    def _scan_columns(self, node: PhysicalNode, snapshot) -> Dict[str, List[object]]:
        """The snapshot columns *node* emits, keyed ``alias.column``.

        Below ``arrays.ARRAY_MIN_ROWS`` rows every column is emitted: the
        columns are plain lists there, a gather is cheap, and a cold
        statement pays neither the walk behind :meth:`_statement_names` nor
        a cache entry.  Above it, only the columns the statement may read;
        which ones is cached on the node per snapshot schema and name set.
        """
        alias = node.info.get("alias") or node.info["table"]
        columns = snapshot.columns
        if snapshot.length < arrays.ARRAY_MIN_ROWS:
            prefix = alias + "."
            return {prefix + name: values for name, values in columns.items()}
        schema = tuple(columns)
        names = self._statement_names()
        keys = self._node_batch_compiled(
            node,
            ("scan_keys", schema, names),
            lambda: [
                (name, f"{alias}.{name}")
                for name in schema
                # A name that is not a plain identifier could match a
                # reference in ways a name set cannot see (``a.b`` by
                # suffix); it is always kept.
                if names is None or name.lower() in names or not name.isidentifier()
            ],
        )
        return {key: columns[name] for name, key in keys}

    def _statement_names(self) -> Optional[FrozenSet[str]]:
        """The executing statement's :func:`_referenced_names`, computed once
        per plan root.  The root is the one this thread's top-level
        ``execute`` recorded: the service's reader threads share one
        executor and one cached plan."""
        root = self._local.subqueries.root
        return self._node_batch_compiled(
            root, "referenced_names", lambda: _referenced_names(root)
        )

    def _batch_seq_scan(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        table = self.database.table(node.info["table"])
        snapshot = self._table_snapshot(table)
        base = RowBatch(self._scan_columns(node, snapshot), snapshot.length)
        batches = _split(base, self.batch_size)
        if node.info.get("filter") is None:
            return batches
        return self._apply_filter(node, "filter", batches)

    def _batch_index_scan(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        table = self.database.table(node.info["table"])
        index = self.database.index(node.info["index"])
        index_condition = node.info.get("index_condition")
        leading = index.definition.leading_column()
        bounds = self._node_batch_compiled(
            node,
            ("bounds", leading),
            lambda: _extract_bounds(index_condition, leading),
        )
        if bounds is not None and bounds.equality_values is not None:
            row_ids: List[int] = []
            for value in bounds.equality_values:
                row_ids.extend(index.prefix_lookup((value,)))
        else:
            low = bounds.low if bounds else None
            high = bounds.high if bounds else None
            include_low = bounds.include_low if bounds else True
            include_high = bounds.include_high if bounds else True
            row_ids = [
                row_id
                for _, row_id in index.range_scan(low, high, include_low, include_high)
            ]
        snapshot = self._table_snapshot(table)
        try:
            positions = [snapshot.position_of(row_id) for row_id in row_ids]
        except KeyError as exc:
            raise StorageError(
                f"row id {exc.args[0]} does not exist in {table.schema.name!r}"
            ) from exc
        batch = RowBatch(
            {
                key: arrays.take_column(values, positions)
                for key, values in self._scan_columns(node, snapshot).items()
            },
            len(positions),
        )
        # Row order mirrors the row executor: index order, the index
        # condition re-checked first, the residual filter on its survivors.
        if index_condition is not None and batch.length:
            selection = self._node_batch_predicate(node, "index_condition")(
                self._batch_context(batch)
            )
            if len(selection) != batch.length:
                batch = _gather(batch, selection)
        if node.info.get("filter") is not None and batch.length:
            selection = self._node_batch_predicate(node, "filter")(
                self._batch_context(batch)
            )
            if len(selection) != batch.length:
                batch = _gather(batch, selection)
        return _split(batch, self.batch_size)

    # ------------------------------------------------------------------ executors

    def _batch_filter(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        return self._apply_filter(node, "predicate", batches)

    def _apply_filter(
        self, node: PhysicalNode, key: str, batches: List[RowBatch]
    ) -> List[RowBatch]:
        """Run the node's *key* predicate over *batches*, keeping survivors.

        Batch order is the row order contract; a subclass may evaluate the
        batches concurrently (the parallel executor's morsel exchange) as
        long as the surviving batches come back in input order.
        """
        select = self._node_batch_predicate(node, key)
        output: List[RowBatch] = []
        for batch in batches:
            selection = select(self._batch_context(batch))
            if len(selection) == batch.length:
                output.append(batch)
            elif len(selection):
                output.append(_gather(batch, selection))
        return output

    def _batch_passthrough(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        return self._execute_batches(node.children[0], analyze, _EMPTY_ROW)

    def _batch_project(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)

        def compile_items():
            compiled = []
            for expression, name in node.info.get("items", []):
                if isinstance(expression, ast.Star):
                    compiled.append(("star", expression.table, None, None))
                else:
                    # Non-column expressions pass through by printed text
                    # when an aggregation below already produced the value —
                    # the row executor's grouped-expression passthrough.
                    printed = (
                        None
                        if isinstance(expression, ast.ColumnRef)
                        else print_expression(expression)
                    )
                    compiled.append(
                        ("expr", name, compile_expression_batch(expression), printed)
                    )
            return compiled

        items = self._node_batch_compiled(node, "items", compile_items)
        output: List[RowBatch] = []
        for batch in batches:
            context = self._batch_context(batch)
            columns: Dict[str, List[object]] = {}
            for kind, name, fn, printed in items:
                if kind == "star":
                    if name:  # qualified star: name carries the table alias
                        prefix = name + "."
                        for key, values in batch.columns.items():
                            if key.startswith(prefix):
                                columns[key] = values
                    else:
                        columns.update(batch.columns)
                elif printed is not None and printed in batch.columns:
                    columns[name] = batch.columns[printed]
                else:
                    columns[name] = fn(context)
            output.append(RowBatch(columns, batch.length))
        return output

    # ------------------------------------------------------------------ joins

    def _batch_nested_loop_join(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        left = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        right = self._execute_batches(node.children[1], analyze, _EMPTY_ROW)
        return self._batch_join_generic(node, left, right)

    def _batch_hash_join(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        left_batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        right_batches = self._execute_batches(node.children[1], analyze, _EMPTY_ROW)
        # One compiled column reference per key side: each binds once per
        # batch schema (``compile_expression_batch``), not once per execution.
        keys = self._node_batch_compiled(
            node,
            "join_keys",
            lambda: [
                (compile_expression_batch(left), compile_expression_batch(right))
                for left, right in _equi_join_keys(node.info.get("condition"))
            ],
        )
        if not keys:
            return self._batch_join_generic(node, left_batches, right_batches)
        join_type = node.info.get("join_type", "INNER")
        if (
            join_type in ("RIGHT", "FULL")
            or not _uniform_schema(left_batches)
            or not _uniform_schema(right_batches)
        ):
            # RIGHT/FULL padding follows the row executor's any(check)
            # probe over whole combined rows, whose column resolution can
            # differ from per-side key resolution in degenerate conditions;
            # the row core stays the single source of truth for it.
            return batches_from_rows(
                self._hash_join_rows(
                    node,
                    rows_from_batches(left_batches),
                    rows_from_batches(right_batches),
                    _EMPTY_ROW,
                ),
                self.batch_size,
            )
        left = _concat(left_batches)
        right = _concat(right_batches)

        left_keys = self._key_columns(left, [pair[0] for pair in keys])
        right_keys = self._key_columns(right, [pair[1] for pair in keys])

        # Probe.  Single-key array columns take the sort/searchsorted kernel
        # (arrays.join_probe), which emits candidate pairs in exactly the
        # per-row loop's order — left-major, ascending right positions per
        # left row — so both paths feed identical candidates downstream.
        probed = (
            arrays.join_probe(left_keys[0], right_keys[0])
            if left_keys is not None and right_keys is not None and len(keys) == 1
            else None
        )
        if probed is not None:
            candidate_left, candidate_right, _ = probed
        else:
            # Build on the right side: normalised key tuple -> right positions
            # (in right order, matching the row executor's bucket lists), then
            # probe every left key in one pass; candidate pairs come out
            # left-major.  A NULL key is never a build key, so it finds nothing.
            build = self._hash_build(right, right_keys)
            candidate_left: List[int] = []
            candidate_right: List[int] = []
            if build and left_keys is not None:
                for position, key in enumerate(_join_keys(left_keys)):
                    bucket = build.get(key)
                    if bucket:
                        candidate_left.extend([position] * len(bucket))
                        candidate_right.extend(bucket)

        _, sides = _combined_schema(left, right)
        candidates = RowBatch(
            {
                key: arrays.take_column(
                    source, candidate_right if side == "r" else candidate_left
                )
                for key, side, source in sides
            },
            len(candidate_left),
        )
        # An empty candidate chunk is never evaluated: the row executor
        # evaluates the condition per probed pair, so zero pairs mean zero
        # evaluations (and no resolution errors from an absent schema).
        survivors = (
            self._node_batch_predicate(node, "condition")(
                self._batch_context(candidates)
            )
            if candidates.length
            else []
        )
        if join_type != "LEFT":
            if len(survivors) != candidates.length:
                candidates = _gather(candidates, survivors)
            return _split(candidates, self.batch_size)

        # LEFT: two index vectors describe the output — the surviving pairs
        # (already left-major) plus one (left, pad) entry per unmatched left
        # row, merged by a stable sort on left position — and every column
        # is gathered once.
        survivors = arrays.as_list(survivors)
        left_index = arrays.take_column(arrays.as_list(candidate_left), survivors)
        right_index = arrays.take_column(arrays.as_list(candidate_right), survivors)
        matched = set(left_index)
        unmatched = [p for p in range(left.length) if p not in matched]
        left_index += unmatched
        right_index += [arrays.PAD] * len(unmatched)
        order = sorted(range(len(left_index)), key=left_index.__getitem__)
        left_index = [left_index[i] for i in order]
        right_index = [right_index[i] for i in order]
        return _split(
            RowBatch(
                {
                    key: arrays.take_padded(source, right_index)
                    if side == "r"
                    else arrays.take_column(source, left_index)
                    for key, side, source in sides
                },
                len(order),
            ),
            self.batch_size,
        )

    def _hash_build(
        self, right: RowBatch, right_keys: Optional[List[List[object]]]
    ) -> Dict[Tuple, List[int]]:
        """The hash-join build table: normalised key tuple -> right-side
        positions, bucket lists in ascending position order (the row
        executor's bucket order).  A seam for the parallel executor, which
        builds per-morsel partial tables and merges them in morsel order —
        producing this exact mapping."""
        if right_keys is None:
            return {}
        return _hash_buckets(right_keys, 0, right.length)

    def _batch_merge_join(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        # Correctness first, exactly as the row executor: a merge join
        # produces the same rows as a hash join.
        return self._batch_hash_join(node, analyze)

    def _batch_semi_join(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        """Hash semi / null-aware anti join over batches.

        The inner side's first output column is collected into one key set,
        then each outer batch evaluates the probe expression as a chunk and
        keeps the matching (semi) or non-matching (anti) positions.  The
        three-valued edge cases — NULL probes never TRUE, ``NOT IN`` against
        an empty inner keeping everything, a single inner NULL emptying the
        ``NOT IN`` result — mirror the row executor's ``_semi_join_rows``.
        """
        left_batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        right_batches = self._execute_batches(node.children[1], analyze, _EMPTY_ROW)
        anti = node.kind is OpKind.ANTI_JOIN
        if node.info.get("quantifier") == "exists":
            has_rows = any(batch.length for batch in right_batches)
            return left_batches if has_rows != anti else []
        inner_keys = set()
        saw_null = False
        total_right = 0
        for batch in right_batches:
            total_right += batch.length
            if not batch.columns:
                # Rows without columns read as a NULL first value.
                saw_null = saw_null or batch.length > 0
                continue
            for value in next(iter(batch.columns.values())):
                if value is None:
                    saw_null = True
                else:
                    inner_keys.add(_semi_join_key(value))
        if anti and not total_right:
            return left_batches
        if anti and saw_null:
            return []
        probe = self._node_batch_compiled(
            node, "probe", lambda: compile_expression_batch(node.info["probe"])
        )
        output: List[RowBatch] = []
        for batch in left_batches:
            values = probe(self._batch_context(batch))
            selection = [
                position
                for position, value in enumerate(values)
                if value is not None
                and (_semi_join_key(value) in inner_keys) != anti
            ]
            if len(selection) == batch.length:
                output.append(batch)
            elif selection:
                output.append(_gather(batch, selection))
        return output

    def _batch_join_generic(
        self, node: PhysicalNode, left_batches: List[RowBatch], right_batches: List[RowBatch]
    ) -> List[RowBatch]:
        """Nested-loop join over batches (also: hash join without equi keys)."""
        if not _uniform_schema(left_batches) or not _uniform_schema(right_batches):
            return batches_from_rows(
                self._join_rows(
                    node,
                    rows_from_batches(left_batches),
                    rows_from_batches(right_batches),
                    _EMPTY_ROW,
                ),
                self.batch_size,
            )
        left = _concat(left_batches)
        right = _concat(right_batches)
        join_type = node.info.get("join_type", "INNER")
        pad_left = join_type in ("LEFT", "FULL")
        pad_right = join_type in ("RIGHT", "FULL")
        check = self._node_batch_predicate(node, "condition")

        combined_keys, sides = _combined_schema(left, right)
        columns: Dict[str, List[object]] = {key: [] for key in combined_keys}
        matched_right: set = set()
        length = 0
        for position in range(left.length):
            # Broadcast this left row against the whole right side and
            # evaluate the join condition as one chunk.  An empty right
            # side is never evaluated (zero pairs, like the row executor).
            if right.length:
                broadcast = {
                    key: ([source[position]] * right.length if side == "l" else source)
                    for key, side, source in sides
                }
                selection = check(
                    BatchContext(broadcast, right.length, self._run_subquery)
                )
            else:
                selection = []
            for right_position in selection:
                matched_right.add(right_position)
                for key, side, source in sides:
                    columns[key].append(
                        source[right_position] if side == "r" else source[position]
                    )
            length += len(selection)
            if not len(selection) and pad_left:
                for key, side, source in sides:
                    columns[key].append(source[position] if side == "l" else None)
                length += 1
        if pad_right:
            for position in range(right.length):
                if position not in matched_right:
                    for key, side, source in sides:
                        columns[key].append(source[position] if side == "r" else None)
                    length += 1
        return _split(RowBatch(columns, length), self.batch_size)

    def _key_columns(
        self, batch: RowBatch, references: List[Callable]
    ) -> Optional[List[List[object]]]:
        """Resolve join-key columns through their compiled references,
        ``None`` when any reference is unknown (the row executor's
        ``_hash_key`` treats that as a NULL key)."""
        if not batch.length:
            return None
        context = BatchContext(batch.columns, batch.length)
        try:
            return [reference(context) for reference in references]
        except ExecutionError:
            return None

    # ------------------------------------------------------------------ folders

    def _batch_aggregate(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        input_batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        group_keys: List[ast.Expression] = node.info.get("group_keys", [])
        aggregates: List[ast.FunctionCall] = node.info.get("aggregates", [])
        if node.info.get("deduplicate"):
            return self._batch_dedupe(input_batches)
        if not group_keys and not aggregates:
            return input_batches

        def compile_aggregate():
            # Output names are part of the compiled artifact: a grouped
            # ColumnRef is readable by printed text, qualified and bare name.
            key_names = []
            for expression in group_keys:
                names = [print_expression(expression)]
                if isinstance(expression, ast.ColumnRef):
                    if expression.table:
                        names.append(f"{expression.table}.{expression.column}")
                    names.append(expression.column)
                key_names.append(names)
            return (
                [compile_expression_batch(e) for e in group_keys],
                key_names,
                [
                    compile_expression_batch(a.arguments[0])
                    if (not a.star and a.arguments)
                    else None
                    for a in aggregates
                ],
                [print_expression(a) for a in aggregates],
            )

        key_fns, key_names, argument_fns, aggregate_names = self._node_batch_compiled(
            node, "aggregate", compile_aggregate
        )
        length = sum(batch.length for batch in input_batches)
        if not length:
            # No groups — or, without GROUP BY, one row of "empty" values.
            if group_keys:
                return []
            empty = {
                name: [fold_aggregate(aggregate, [])]
                for name, aggregate in zip(aggregate_names, aggregates)
            }
            return [RowBatch(empty, 1)]

        # Every key and argument column is evaluated once over the whole
        # input, the keys factorised once into first-appearance group codes
        # (the row executor's insertion-ordered group dict), and each
        # aggregate then picks its own reduction.
        evaluated = iter(
            self._evaluate_columns(
                input_batches, key_fns + [fn for fn in argument_fns if fn is not None]
            )
        )
        key_columns = [next(evaluated) for _ in key_fns]
        argument_columns = [
            None if fn is None else next(evaluated) for fn in argument_fns
        ]
        grouped = arrays.group_codes(key_columns, length)
        if grouped is None:
            index: Dict[Tuple, int] = {}
            codes: List[int] = []
            first_positions: List[int] = []
            for position, key in enumerate(_row_keys(key_columns, length, _own_classes)):
                code = index.get(key)
                if code is None:
                    code = index[key] = len(first_positions)
                    first_positions.append(position)
                codes.append(code)
            count = len(first_positions)
        else:
            codes, count, first_positions = grouped
        order, bounds = arrays.group_order(codes, count)

        columns: Dict[str, List[object]] = {}
        for names, column in zip(key_names, key_columns):
            values = arrays.take_column(column, first_positions)
            for name in names:
                columns[name] = values
        for aggregate, name, column in zip(aggregates, aggregate_names, argument_columns):
            values = (
                None
                if aggregate.distinct
                else arrays.reduce_groups(aggregate.name.upper(), column, order, bounds)
            )
            if values is None:
                # Fold each group's slice, gathered once in stable group
                # order: float SUM/AVG, DISTINCT and big-int sums see their
                # values in input order, as the row executor does.
                ordered = (
                    [1] * length
                    if column is None
                    else arrays.as_list(arrays.take_column(column, order))
                )
                values = [
                    fold_aggregate(aggregate, ordered[start:stop])
                    for start, stop in zip(bounds, bounds[1:])
                ]
            columns[name] = arrays.make_column(values)
        return _split(RowBatch(columns, count), self.batch_size)

    def _evaluate_columns(
        self, batches: List[RowBatch], fns: List[Callable]
    ) -> List[List[object]]:
        """Each of *fns* over all rows of the non-empty *batches*: one
        column per fn (one evaluation when the schema is uniform)."""
        if _uniform_schema(batches):
            context = self._batch_context(_concat(batches))
            return [fn(context) for fn in fns]
        per_batch = [
            [fn(context) for fn in fns] for context in map(self._batch_context, batches)
        ]
        return [arrays.concat_columns(parts) for parts in zip(*per_batch)]

    # ------------------------------------------------------------------ combinators

    def _batch_sort(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        keys: List[Tuple[ast.Expression, bool]] = node.info.get("sort_keys", [])
        if not keys:
            sorted_batches = batches
        elif not batches:
            sorted_batches = []
        else:
            compiled = self._node_batch_compiled(
                node,
                "sort",
                lambda: [
                    functools.partial(
                        _safe_batch_values, compile_expression_batch(expression), expression
                    )
                    for expression, _ in keys
                ],
            )
            # Evaluate the sort keys once over the whole input; typed key
            # columns order via np.lexsort (NULLS FIRST rank encoding,
            # per-key DESC negation, stable position tiebreak — exactly
            # _SortKey/_ComparableKey), anything else via the decorated
            # Python sort over the same value columns.
            if _uniform_schema(batches):
                batches = [_concat(batches)]
            value_columns = self._evaluate_columns(batches, compiled)
            directions = [descending for _, descending in keys]
            order = arrays.sort_order(list(zip(value_columns, directions)))
            if order is None:
                decorated = [
                    _ComparableKey(
                        [
                            (sortable((value,))[0], descending)
                            for value, descending in zip(values, directions)
                        ],
                        position,
                    )
                    for position, values in enumerate(zip(*value_columns))
                ]
                decorated.sort()
                order = [key.position for key in decorated]
            sorted_batches = _gather_global(batches, order, self.batch_size)
        if node.kind is OpKind.TOP_N:
            limit_expression = node.info.get("limit")
            limit_value = (
                evaluate(limit_expression, self._scalar_context())
                if limit_expression is not None
                else None
            )
            if isinstance(limit_value, (int, float)):
                end = int(limit_value)
                if end < 0:
                    # SQLite semantics (the dialect under test): a negative
                    # LIMIT means "no limit", exactly as the row executor.
                    return sorted_batches
                return _slice_batches(sorted_batches, 0, end)
        return sorted_batches

    def _batch_limit(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        batches = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        context = self._scalar_context()
        offset_expression = node.info.get("offset")
        limit_expression = node.info.get("limit")
        start = 0
        if offset_expression is not None:
            offset_value = evaluate(offset_expression, context)
            if isinstance(offset_value, (int, float)):
                start = max(int(offset_value), 0)
        end: Optional[int] = None
        if limit_expression is not None:
            limit_value = evaluate(limit_expression, context)
            # A negative LIMIT means "no limit" (SQLite semantics), exactly
            # as the row executor slices.
            if isinstance(limit_value, (int, float)) and int(limit_value) >= 0:
                end = start + int(limit_value)
        return _slice_batches(batches, start, end)

    def _batch_distinct(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        return self._batch_dedupe(
            self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        )

    def _batch_dedupe(self, batches: List[RowBatch]) -> List[RowBatch]:
        seen = set()
        order: List[int] = []
        offset = 0
        for batch in batches:
            keys = _row_keys(list(batch.columns.values()), batch.length)
            for position, key in enumerate(keys, offset):
                if key not in seen:
                    seen.add(key)
                    order.append(position)
            offset += batch.length
        if offset and len(order) == offset:
            return batches
        return _gather_global(batches, order, self.batch_size)

    def _batch_append(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        outputs = [
            self._execute_batches(child, analyze, _EMPTY_ROW)
            for child in node.children
        ]
        template: Optional[Tuple[str, ...]] = None
        for batches in outputs:
            for batch in batches:
                template = batch.schema()
                break
            if template is not None:
                break
        combined: List[RowBatch] = []
        for batches in outputs:
            for batch in batches:
                schema = batch.schema()
                if (
                    template is None
                    or schema == template
                    or len(schema) != len(template)
                ):
                    combined.append(batch)
                else:
                    # Align columns by position with the first child.
                    combined.append(
                        RowBatch(
                            dict(zip(template, batch.columns.values())), batch.length
                        )
                    )
        return combined

    def _batch_intersect(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        return self._batch_set_operation(node, analyze, keep_members=True)

    def _batch_except(self, node: PhysicalNode, analyze: bool) -> List[RowBatch]:
        return self._batch_set_operation(node, analyze, keep_members=False)

    def _batch_set_operation(
        self, node: PhysicalNode, analyze: bool, keep_members: bool
    ) -> List[RowBatch]:
        left = self._execute_batches(node.children[0], analyze, _EMPTY_ROW)
        right = self._execute_batches(node.children[1], analyze, _EMPTY_ROW)
        right_keys = set()
        for batch in right:
            right_keys.update(_row_keys(list(batch.columns.values()), batch.length))
        filtered: List[RowBatch] = []
        for batch in left:
            keys = _row_keys(list(batch.columns.values()), batch.length)
            selection = [
                position
                for position, key in enumerate(keys)
                if (key in right_keys) == keep_members
            ]
            if len(selection) == batch.length:
                filtered.append(batch)
            elif selection:
                filtered.append(_gather(batch, selection))
        return self._batch_dedupe(filtered)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _referenced_names(root: PhysicalNode) -> Optional[FrozenSet[str]]:
    """Every lower-cased column name *root*'s statement may read, or
    ``None`` when a ``*`` / ``t.*`` makes it read every column.

    The walk covers each node's ``info`` — expressions, attached init-plans
    and subplans, subquery ASTs inside expressions (also those planned only
    at first use), a DML ``statement`` — and ``USING`` column lists.  It
    deliberately ignores the planner's needed-column sets, which miss ORDER
    BY keys and references inside subqueries.  A reference ``a.b`` also
    contributes ``b``: resolution matches keys by exact text, by ``.name``
    suffix and case-insensitively, so every key a reference can resolve to
    is ``alias.column`` with ``column`` among these names (or a column name
    that is not a plain identifier, which scans always keep).
    """
    names = set()
    stack: List[object] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, PhysicalNode):
            stack.extend(item.children)
            stack.extend(item.info.values())
        elif isinstance(item, ast.ColumnRef):
            text = (
                f"{item.table}.{item.column}" if item.table else item.column
            ).lower()
            names.add(text)
            while "." in text:
                text = text.split(".", 1)[1]
                names.add(text)
        elif isinstance(item, ast.Star):
            return None
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, ast.Node):
            if isinstance(item, ast.Join):
                names.update(column.lower() for column in item.using_columns)
            stack.extend(vars(item).values())
    return frozenset(names)


def _safe_batch_values(fn, expression, context: BatchContext) -> List[object]:
    """Sort-key values with the row executor's per-row error absorption.

    The row path evaluates each sort key under ``try/except
    ExecutionError -> None``; a whole-chunk evaluation that raises is
    therefore redone row by row so only the failing rows become NULL.
    """
    try:
        return fn(context)
    except ExecutionError:
        values = []
        for row in context.rows():
            try:
                values.append(
                    evaluate(expression, EvaluationContext(row, context.subquery_executor))
                )
            except ExecutionError:
                values.append(None)
        return values


def _normalised(column: List[object]):
    return map(_normalise_value, column)


_OWN_CLASS_TYPES = {str, type(None)}


def _own_classes(column: List[object]):
    """:func:`_normalised`, except that a column whose values already *are*
    their ``_normalise_value`` equality classes — one array dtype, or only
    strings, NULLs allowed in both — passes through as is.  Only for keys
    compared within this one column (group keys, not join or set keys)."""
    if isinstance(column, arrays.ArrayColumn):
        return column.tolist()
    if set(map(type, column)) <= _OWN_CLASS_TYPES:
        return column
    return _normalised(column)


def _row_keys(columns: List[List[object]], length: int, parts=_normalised):
    """One hashable key tuple per row of the parallel value *columns*, with
    ``_normalise_value``'s equality classes, computed a column at a time."""
    if not columns:
        return [()] * length
    return zip(*map(parts, columns))


_NULL_KEY = _normalise_value(None)


def _join_keys(key_columns: List[List[object]]) -> List[Optional[Tuple]]:
    """The normalised join key of every row; ``None`` where any part is NULL."""
    return [
        None if _NULL_KEY in key else key
        for key in _row_keys(key_columns, len(key_columns[0]))
    ]


def _hash_buckets(
    key_columns: List[List[object]], start: int, stop: int
) -> Dict[Tuple, List[int]]:
    """Join key -> ascending positions for rows ``[start, stop)``; NULL keys
    are left out."""
    buckets: Dict[Tuple, List[int]] = {}
    keys = _join_keys([column[start:stop] for column in key_columns])
    for position, key in enumerate(keys, start):
        if key is not None:
            buckets.setdefault(key, []).append(position)
    return buckets


def _combined_schema(left: RowBatch, right: RowBatch):
    """The ``{**left, **right}`` schema of joined rows.

    Returns ``(keys, sides)`` where ``sides`` holds one ``(key, side,
    source_column)`` triple per output column; duplicated keys read from the
    right side, mirroring dict-merge semantics.  An empty side contributes
    no columns, exactly as ``_null_row_like([])`` pads with nothing.
    """
    sides: List[Tuple[str, str, List[object]]] = []
    keys: List[str] = []
    left_columns = left.columns if left.length else {}
    right_columns = right.columns if right.length else {}
    for key, values in left_columns.items():
        if key in right_columns:
            sides.append((key, "r", right_columns[key]))
        else:
            sides.append((key, "l", values))
        keys.append(key)
    for key, values in right_columns.items():
        if key not in left_columns:
            sides.append((key, "r", values))
            keys.append(key)
    return keys, sides


def _slice_batches(
    batches: List[RowBatch], start: int, end: Optional[int]
) -> List[RowBatch]:
    """``rows[start:end]`` over a batch list (LIMIT / OFFSET / TOP-N)."""
    output: List[RowBatch] = []
    offset = 0
    for batch in batches:
        if end is not None and offset >= end:
            break
        low = max(start - offset, 0)
        high = batch.length if end is None else min(end - offset, batch.length)
        if low < high:
            if low == 0 and high == batch.length:
                output.append(batch)
            else:
                output.append(
                    RowBatch(
                        {
                            key: values[low:high]
                            for key, values in batch.columns.items()
                        },
                        high - low,
                    )
                )
        offset += batch.length
    return output


_BATCH_HANDLERS: Dict[OpKind, Callable] = {
    OpKind.SEQ_SCAN: VectorizedExecutor._batch_seq_scan,
    OpKind.INDEX_SCAN: VectorizedExecutor._batch_index_scan,
    OpKind.INDEX_ONLY_SCAN: VectorizedExecutor._batch_index_scan,
    OpKind.NESTED_LOOP_JOIN: VectorizedExecutor._batch_nested_loop_join,
    OpKind.HASH_JOIN: VectorizedExecutor._batch_hash_join,
    OpKind.MERGE_JOIN: VectorizedExecutor._batch_merge_join,
    OpKind.SEMI_JOIN: VectorizedExecutor._batch_semi_join,
    OpKind.ANTI_JOIN: VectorizedExecutor._batch_semi_join,
    OpKind.HASH_AGGREGATE: VectorizedExecutor._batch_aggregate,
    OpKind.SORT_AGGREGATE: VectorizedExecutor._batch_aggregate,
    OpKind.SORT: VectorizedExecutor._batch_sort,
    OpKind.TOP_N: VectorizedExecutor._batch_sort,
    OpKind.LIMIT: VectorizedExecutor._batch_limit,
    OpKind.DISTINCT: VectorizedExecutor._batch_distinct,
    OpKind.APPEND: VectorizedExecutor._batch_append,
    OpKind.INTERSECT: VectorizedExecutor._batch_intersect,
    OpKind.EXCEPT: VectorizedExecutor._batch_except,
    OpKind.PROJECT: VectorizedExecutor._batch_project,
    OpKind.FILTER: VectorizedExecutor._batch_filter,
    OpKind.MATERIALIZE: VectorizedExecutor._batch_passthrough,
    OpKind.GATHER: VectorizedExecutor._batch_passthrough,
    OpKind.HASH_BUILD: VectorizedExecutor._batch_passthrough,
}
