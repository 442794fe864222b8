"""The morsel exchange operator and the parallel executor's oracle parity.

The exchange (:class:`repro.engine.morsel.MorselExchange`) must behave
exactly like a serial left-to-right loop — same results, same order, same
first error — no matter how its workers interleave; the parallel executor
built on it must be indistinguishable from the serial vectorized engine
(which is itself pinned to the row oracle).  Also covers the picklable
snapshot slices the parallel layers ship across process boundaries.
"""

import pickle
import threading
import time

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.dialects import create_dialect
from repro.engine import arrays, create_executor
from repro.engine.morsel import (
    MorselExchange,
    ParallelExecutor,
    default_morsel_workers,
    morsel_ranges,
)
from repro.engine.vectorized import RowBatch, VectorizedExecutor
from repro.storage.table import TableSnapshot
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator


class TestMorselRanges:
    def test_contiguous_and_complete(self):
        for total in (0, 1, 5, 1024, 1025, 5000):
            for size in (1, 7, 1024):
                ranges = morsel_ranges(total, size)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(total))

    def test_default_workers_floor(self):
        # Even single-core hosts get a 2-wide exchange so the machinery is
        # exercised everywhere the determinism tests run.
        assert default_morsel_workers() >= 2


class TestMorselExchange:
    def test_results_in_sequence_order(self):
        exchange = MorselExchange(workers=4)
        items = list(range(50))
        # Perturb scheduling: later morsels finish earlier.
        def stage(item):
            time.sleep((50 - item) * 0.0002)
            return item * item
        assert exchange.map(items, stage) == [i * i for i in items]

    def test_matches_serial_map(self):
        exchange = MorselExchange(workers=3)
        items = ["a", "bb", "ccc", ""] * 7
        assert exchange.map(items, len) == [len(item) for item in items]

    def test_empty_and_single_item(self):
        exchange = MorselExchange(workers=2)
        assert exchange.map([], lambda x: x) == []
        assert exchange.map([41], lambda x: x + 1) == [42]

    def test_every_worker_runs(self):
        # The stage-complete sentinels mean each worker drains its share;
        # with enough morsels every thread participates.
        exchange = MorselExchange(workers=4)
        seen = set()
        lock = threading.Lock()
        def stage(item):
            with lock:
                seen.add(threading.current_thread().name)
            time.sleep(0.002)
            return item
        exchange.map(list(range(64)), stage)
        assert len(seen) > 1

    def test_lowest_sequence_error_wins(self):
        # A serial loop raises the *first* failing morsel's error; the
        # exchange must pick the same one no matter which worker hit an
        # error first in wall-clock time.
        exchange = MorselExchange(workers=4)
        def stage(item):
            if item % 10 == 3:
                # Make the later failure finish first.
                time.sleep(0.0 if item > 20 else 0.01)
                raise ValueError(f"morsel {item}")
            return item
        with pytest.raises(ValueError, match="morsel 3"):
            exchange.map(list(range(40)), stage)

    def test_errors_do_not_wedge_the_queue(self):
        # Workers keep draining after a failure, so the exchange always
        # terminates and stays reusable.
        exchange = MorselExchange(workers=2)
        def bad(item):
            raise RuntimeError("boom")
        for _ in range(3):
            with pytest.raises(RuntimeError):
                exchange.map(list(range(10)), bad)
        assert exchange.map([1, 2, 3], lambda x: -x) == [-1, -2, -3]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            MorselExchange(workers=0)


def _build_dialect(executor, rows=4000):
    dialect = create_dialect("postgresql")
    dialect.reconfigure(executor=executor)
    dialect.execute("CREATE TABLE big (a INT, b INT, c REAL)")
    dialect.database.insert_rows(
        "big",
        [
            {
                "a": i % 97,
                "b": (i * 7) % 13 if i % 11 else None,
                "c": float(i) * 0.5,
            }
            for i in range(rows)
        ],
    )
    dialect.execute("CREATE TABLE dim (k INT, v INT)")
    dialect.database.insert_rows(
        "dim", [{"k": i % 53 if i % 9 else None, "v": i} for i in range(3000)]
    )
    dialect.analyze_tables()
    return dialect


def _run(dialect, statement):
    try:
        return ("ok", dialect.execute(statement))
    except Exception as error:  # noqa: BLE001 - classified, not swallowed
        return ("error", type(error).__name__)


class TestParallelExecutorParity:
    """executor="parallel" vs the serial vectorized oracle."""

    QUERIES = [
        "SELECT a, c FROM big WHERE a > 50 AND b IS NOT NULL",
        "SELECT a, b FROM big WHERE b < 5 OR c > 1500.0",
        "SELECT big.a, dim.v FROM big JOIN dim ON big.a = dim.k WHERE big.c > 100.0",
        "SELECT big.a, dim.v FROM big LEFT JOIN dim ON big.b = dim.k "
        "ORDER BY big.a, dim.v LIMIT 500",
        "SELECT a, COUNT(*) FROM big WHERE b < 10 GROUP BY a ORDER BY a",
        "SELECT DISTINCT b FROM big WHERE a BETWEEN 10 AND 60 ORDER BY b",
    ]

    def test_big_table_workloads_identical(self):
        vectorized = _build_dialect("vectorized")
        parallel = _build_dialect("parallel")
        for query in self.QUERIES:
            assert _run(parallel, query) == _run(vectorized, query), query

    def test_explain_analyze_counts_identical(self):
        import re

        vectorized = _build_dialect("vectorized")
        parallel = _build_dialect("parallel")
        strip = lambda text: re.sub(r"[0-9]+\.[0-9]+", "T", text)
        for query in self.QUERIES:
            expected = strip(vectorized.explain(query, analyze=True).text)
            actual = strip(parallel.explain(query, analyze=True).text)
            assert actual == expected, query

    def test_generator_corpus_fuzz(self):
        generators = [
            RandomQueryGenerator(seed=29, config=GeneratorConfig(max_tables=2))
            for _ in range(2)
        ]
        dialects = []
        for generator, executor in zip(generators, ("vectorized", "parallel")):
            dialect = create_dialect("postgresql")
            dialect.reconfigure(executor=executor)
            for statement in generator.schema_statements():
                dialect.execute(statement)
            dialects.append(dialect)
        vectorized, parallel = dialects
        for step in range(150):
            queries = [generator.select_query() for generator in generators]
            assert queries[0] == queries[1]
            assert _run(parallel, queries[1]) == _run(vectorized, queries[0])
            if step % 10 == 9:
                mutations = [g.mutation_statement() for g in generators]
                assert mutations[0] == mutations[1]
                _run(vectorized, mutations[0])
                _run(parallel, mutations[1])

    def test_hash_build_identical_to_serial(self):
        # The parallel build merges per-morsel partial tables in morsel
        # order; the result must be the serial single-pass dict exactly —
        # same keys, same ascending bucket lists.
        from repro.catalog.database import Database

        database = Database()
        serial = VectorizedExecutor(database)
        morsel = ParallelExecutor(database, morsel_min_rows=64)
        length = 5000
        keys = [[(i * 13) % 101 if i % 7 else None for i in range(length)]]
        batch = RowBatch({"t.k": keys[0]}, length)
        expected = serial._hash_build(batch, keys)
        actual = morsel._hash_build(batch, keys)
        assert actual == expected
        for bucket in actual.values():
            assert bucket == sorted(bucket)

    def test_morsel_gate_keeps_small_inputs_serial(self):
        # Below morsel_min_rows the exchange must not engage (fan-out costs
        # more than tiny stages); results are identical either way, so pin
        # the gate itself.
        from repro.catalog.database import Database

        database = Database()
        executor = ParallelExecutor(database)
        assert not executor._exchange_worthwhile([])
        tiny = RowBatch({"x": [1, 2]}, 2)
        assert not executor._exchange_worthwhile([tiny])
        assert not executor._exchange_worthwhile([tiny, tiny])

    def test_create_executor_registry(self):
        from repro.catalog.database import Database

        executor = create_executor("parallel", Database())
        assert isinstance(executor, ParallelExecutor)
        assert isinstance(executor, VectorizedExecutor)  # drop-in subclass


class TestPicklableSnapshots:
    """Snapshot slices cross process boundaries for the parallel layers."""

    def _snapshot(self, rows=300):
        schema = TableSchema("t", [Column("a"), Column("b")])
        from repro.storage.table import HeapTable

        table = HeapTable(schema)
        for i in range(rows):
            table.insert({"a": i if i % 5 else None, "b": float(i)})
        return table.column_batch()

    def test_slice_is_zero_copy_view(self):
        snapshot = self._snapshot()
        part = snapshot.slice(10, 20)
        assert part.length == 10
        assert part.version == snapshot.version
        assert part.row_ids == snapshot.row_ids[10:20]
        assert list(part.columns["b"]) == list(snapshot.columns["b"][10:20])
        if arrays.numpy_enabled():
            column = snapshot.columns["b"]
            assert isinstance(column, arrays.ArrayColumn)
            # The slice shares the parent's buffer (a view, not a copy).
            assert part.columns["b"].values.base is not None

    def test_slices_cover_snapshot(self):
        snapshot = self._snapshot()
        parts = [
            snapshot.slice(start, stop)
            for start, stop in morsel_ranges(snapshot.length, 64)
        ]
        rebuilt = [value for part in parts for value in list(part.columns["a"])]
        assert rebuilt == list(snapshot.columns["a"])

    def test_snapshot_pickle_round_trip(self):
        snapshot = self._snapshot()
        snapshot.position_of(snapshot.row_ids[0])  # populate derived state
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.version == snapshot.version
        assert clone.row_ids == snapshot.row_ids
        assert clone._positions is None  # derived state is not serialized
        for name in snapshot.columns:
            assert list(clone.columns[name]) == list(snapshot.columns[name])
        # position_of still works on the far side (rebuilt lazily).
        assert clone.position_of(clone.row_ids[5]) == 5

    def test_slice_pickle_round_trip(self):
        snapshot = self._snapshot()
        part = snapshot.slice(100, 200)
        clone = pickle.loads(pickle.dumps(part))
        assert clone.length == 100
        for name in part.columns:
            assert list(clone.columns[name]) == list(part.columns[name])

    def test_array_column_pickle_drops_list_cache(self):
        # numpy_available() alone is not enough: REPRO_DISABLE_NUMPY=1
        # keeps numpy importable but make_column returns plain lists.
        if not arrays.numpy_enabled():
            pytest.skip("array kernels not active")
        column = arrays.make_column([1, 2, None, 4] * 100)
        assert isinstance(column, arrays.ArrayColumn)
        column.tolist()  # populate the cache
        clone = pickle.loads(pickle.dumps(column))
        assert clone._list is None
        assert clone.tolist() == column.tolist()
