"""``tpch_exec`` — the paper's benchmarking application made engine-heavy:
hot statements on one loaded database.

One postgresql dialect holds TPC-H at scale 2.0 (3 600 lineitems: numpy
columns, above the morsel threshold).  A pass is two sweeps over the TPC-H
queries, each query as ``execute`` then ``explain(format="json",
analyze=True)``; unit, op and chunk are one statement.  The data is the
fixed TPC-H fixture (as ``dbgen`` output is fixed by the specification);
``--seed`` draws the query order of every sweep, the way TPC-H streams
permute the query set.  Seeding the data instead moves Q11 — 80 % of a
sweep — between 0.26 and 0.52 s.

Why this workload: the prepared cache hits on every statement, so sqlparser
and optimizer do nothing and engine + storage snapshots do the work — the
mirror image of ``campaign``.  Q15 raises ``unknown column 'supplier_no'``
on execute and on EXPLAIN ANALYZE; it is probed in set-up, reported as
``engine.tpch_queries_failing`` and kept out of the timed list, because the
timed list holds only operations that succeed.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.benchmarking import tpch
from repro.converters import converter_for
from repro.core.compare import structural_fingerprint
from repro.dialects import create_dialect
from repro.errors import ReproError

from e2ebench import replay
from e2ebench.harness import (
    CheckFailed, Chunk, PassRecorder, RunData, SetupClock, Workload, digest_of, scaled,
)
from e2ebench.proxies import prepared_stats

DBMS = "postgresql"
SCALE = 2.0
QUICK_SCALE = 0.3
SWEEPS = 2


class TpchExecWorkload(Workload):
    name = "tpch_exec"

    def setup(self, clock: SetupClock) -> None:
        self.data_scale = QUICK_SCALE if self.quick else SCALE
        self.sweeps = 1 if self.quick else scaled(SWEEPS, self.scale)
        self.converter = converter_for(DBMS)
        with clock.step("storage.load"):
            self.dialect = create_dialect(DBMS)
            tpch.load_into(self.dialect, scale=self.data_scale)
        with clock.step("catalog.analyze"):
            self.dialect.analyze_tables()
        with clock.step("engine.row_reference"):
            # The oracle: the row executor on the same loaded dialect, plus
            # the plan shape plain EXPLAIN reports for each query.
            self.reference: Dict[int, Tuple[str, str]] = {}
            self.failing: Dict[int, str] = {}
            self.dialect.set_executor("row")
            for number, sql in tpch.QUERIES.items():
                try:
                    rows = self.dialect.execute(sql)
                    shape = self._plan_shape(self.dialect.explain(sql, format="json").text)
                except ReproError as exc:
                    self.failing[number] = f"{type(exc).__name__}: {exc}"
                    continue
                self.reference[number] = (digest_of(rows), shape)
            self.dialect.set_executor("vectorized")
        rng = random.Random(f"tpch_exec:{self.seed}")
        #: The query order of every sweep of a pass, the workload's input.
        self.orders: List[List[int]] = []
        for _ in range(self.sweeps):
            order = sorted(self.reference)
            rng.shuffle(order)
            self.orders.append(order)
        with clock.step("bench.warm_up"):
            recorder = PassRecorder(self.tracer, 1)
            for number in sorted(self.reference):
                self._execute(recorder, number)
                self._explain(recorder, number)
        self.sources: List[Tuple[str, str, str]] = []

    def _plan_shape(self, text: str) -> str:
        return structural_fingerprint(self.converter.convert(text, format="json"))

    # -- chunks ---------------------------------------------------------------

    def _execute(self, recorder: PassRecorder, number: int):
        return recorder.lane().timed("dialects.execute", self.dialect.execute, tpch.QUERIES[number])

    def _explain(self, recorder: PassRecorder, number: int) -> str:
        output = recorder.lane().timed(
            "dialects.explain", self.dialect.explain, tpch.QUERIES[number],
            format="json", analyze=True,
        )
        if output.bound_violations:
            raise CheckFailed(f"Q{number}: EXPLAIN ANALYZE reported {output.bound_violations}")
        if self.tracer.enabled:
            self.sources.append((DBMS, "json", output.text))
        return output.text

    def chunks(self) -> List[Chunk]:
        chunks = []
        for sweep, order in enumerate(self.orders):
            for number in order:
                chunks.append(Chunk(
                    f"s{sweep}:q{number}:execute", 1,
                    lambda rec, n=number: self._execute(rec, n),
                ))
                chunks.append(Chunk(
                    f"s{sweep}:q{number}:explain", 1,
                    lambda rec, n=number: self._explain(rec, n),
                    digest=self._plan_shape,
                ))
        return chunks

    # -- gates ----------------------------------------------------------------

    def verify(self, passes: Sequence[PassRecorder]) -> None:
        digests = passes[0].chunk_digests
        position = 0
        for order in self.orders:
            for number in order:
                rows_digest, shape = self.reference[number]
                if digests[position] != rows_digest:
                    raise CheckFailed(f"Q{number}: rows differ from the row-executor reference")
                if digests[position + 1] != shape:
                    raise CheckFailed(f"Q{number}: EXPLAIN ANALYZE plan shape differs from EXPLAIN")
                position += 2

    def inputs(self) -> object:
        return self.orders

    def exact_counts(self) -> Dict[str, int]:
        return {
            "engine.tpch_queries_timed": len(self.reference),
            "engine.tpch_queries_failing": len(self.failing),
        }

    # -- per-layer ------------------------------------------------------------

    def _sweep_seconds(self, executor: str) -> float:
        """One sweep (execute + EXPLAIN ANALYZE per query) under *executor*."""
        self.dialect.set_executor(executor)
        try:
            started = time.perf_counter()
            for number in sorted(self.reference):
                self.dialect.execute(tpch.QUERIES[number])
                self.dialect.explain(tpch.QUERIES[number], format="json", analyze=True)
            return time.perf_counter() - started
        finally:
            self.dialect.set_executor("vectorized")

    def layer_metrics(self, run: RunData) -> Dict[str, float]:
        rows_loaded = sum(tpch.row_counts(self.data_scale).values())
        vectorized_sweep_s = sum(run.op_ms) / 1e3 / self.sweeps
        result = run.dialect_op_metrics()
        result.update({
            "storage.load_rows_per_s": rows_loaded / run.setup_steps["storage.load"],
            "catalog.analyze_ms": run.setup_steps["catalog.analyze"] * 1e3,
            "engine.tpch_queries_failing": float(len(self.failing)),
        })
        result.update(prepared_stats([self.dialect]))
        result["engine.row_ratio"] = self._sweep_seconds("row") / vectorized_sweep_s
        result["engine.parallel_ratio"] = self._sweep_seconds("parallel") / vectorized_sweep_s

        totals = replay.StageTotals()
        calls = []
        for number in sorted(self.reference):
            calls.append(("execute", tpch.QUERIES[number], None, None))
            calls.append(("explain", tpch.QUERIES[number], "json", None))
        replay.staged_replay(self.dialect, calls, totals)
        result.update(totals.metrics())
        result.update(replay.convert_replay(list(dict.fromkeys(self.sources))))
        return result
