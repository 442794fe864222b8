"""E-COV — persistent coverage: warm-start ingest.

A :class:`~repro.pipeline.CoverageStore` persisted by an earlier run lets a
fresh process (fresh hub, empty conversion cache) resolve already-seen raw
plans from the source index without parsing at all.  The benchmark ingests
a duplicate-heavy corpus cold, then re-ingests it warm and reports how many
conversions the persisted index skipped (acceptance: >= 90 %).

Plans here are synthetic PostgreSQL ``EXPLAIN (FORMAT JSON)`` documents:
wide ``Append`` fans over per-leaf filters, large enough that parsing
dominates everything else in the batch.
"""

import json
import os
import shutil
import tempfile
import time

from repro.converters import ConverterHub
from repro.pipeline import CoverageStore, PlanIngestService, PlanSource


def heavy_raw(seed: int, nodes: int = 160) -> str:
    """One synthetic CPU-heavy PostgreSQL JSON plan, unique per *seed*."""
    leaves = [
        {
            "Node Type": "Seq Scan",
            "Relation Name": f"t{index}",
            "Alias": f"t{index}",
            "Startup Cost": 0.0,
            "Total Cost": 1.0 + index,
            "Plan Rows": 10 + index,
            "Plan Width": 8,
            "Filter": f"(c{seed} < {index})",
            "Output": f"c{index}",
        }
        for index in range(nodes)
    ]
    plan = {
        "Node Type": "Append",
        "Startup Cost": 0.0,
        "Total Cost": float(nodes),
        "Plan Rows": 100 * nodes,
        "Plan Width": 8,
        "Plans": leaves,
    }
    return json.dumps([{"Plan": plan, "Planning Time": 0.1}])


def duplicate_corpus(unique: int, duplicates: int, nodes: int = 160):
    """*unique* distinct heavy plans, each repeated *duplicates* times."""
    raws = [heavy_raw(seed, nodes) for seed in range(unique)]
    return [
        PlanSource("postgresql", raws[index % unique], "json")
        for index in range(unique * duplicates)
    ]


def _best_of(repeats, run):
    """Run *run* (which returns ``(seconds, payload)``) and keep the best.

    The callables time their measured region themselves, so setup/teardown
    (store directories, checkpoints) is never billed to the measurement.
    """
    best = None
    payload = None
    for _ in range(repeats):
        elapsed, result = run()
        if best is None or elapsed < best:
            best, payload = elapsed, result
    return best, payload


def _timed_ingest(service, corpus):
    started = time.perf_counter()
    report = service.ingest_batch(corpus)
    return time.perf_counter() - started, report


def measure_warm_start(unique=30, duplicates=12, nodes=160, repeats=3) -> dict:
    """Cold ingest persisting the store, then warm ingest from a fresh hub.

    Only the ``ingest_batch`` call is timed on either side — store
    setup/teardown and the checkpoint are excluded, so the comparison
    isolates exactly what the persistent source index saves: conversions.
    """
    corpus = duplicate_corpus(unique, duplicates, nodes)
    root = tempfile.mkdtemp(prefix="bench-coverage-")
    try:
        store_dir = os.path.join(root, "store")

        def cold():
            shutil.rmtree(store_dir, ignore_errors=True)
            service = PlanIngestService(hub=ConverterHub(), persist_to=store_dir)
            elapsed, report = _timed_ingest(service, corpus)
            service.checkpoint()
            service.close()
            return elapsed, report

        cold_seconds, cold_report = _best_of(repeats, cold)

        def warm():
            # A fresh process would have exactly this state: empty hub
            # cache, persisted coverage + source index.
            service = PlanIngestService(hub=ConverterHub(), persist_to=store_dir)
            elapsed, report = _timed_ingest(service, corpus)
            service.close()
            return elapsed, report

        warm_seconds, warm_report = _best_of(repeats, warm)
        snapshot = CoverageStore.open(store_dir).snapshot()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    skipped = cold_report.conversions - warm_report.conversions
    return {
        "corpus": {
            "sources": len(corpus),
            "unique_source_texts": unique,
            "nodes_per_plan": nodes,
        },
        "cold": {
            "seconds": cold_seconds,
            "conversions": cold_report.conversions,
            "plans_per_second": len(corpus) / cold_seconds,
        },
        "warm": {
            "seconds": warm_seconds,
            "conversions": warm_report.conversions,
            "index_hits": warm_report.index_hits,
            "plans_per_second": len(corpus) / warm_seconds,
        },
        "conversions_skipped": skipped,
        "skip_ratio": skipped / cold_report.conversions if cold_report.conversions else 0.0,
        "warm_speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
        "store": snapshot.to_dict(),
    }


def collect_snapshot(quick: bool = False) -> dict:
    """The BENCH_coverage.json payload."""
    if quick:
        warm = measure_warm_start(unique=10, duplicates=6, nodes=60, repeats=1)
    else:
        warm = measure_warm_start()
    return {
        "benchmark": "coverage",
        "quick": quick,
        "cpus": os.cpu_count() or 1,
        "warm_start": warm,
        "invariants": {
            "warm_start_skips_at_least_90pct": warm["skip_ratio"] >= 0.9,
        },
    }


# -- pytest-benchmark entry points (the driver's --suite mode) ----------------


def test_warm_start_skips_conversions(benchmark):
    corpus = duplicate_corpus(unique=8, duplicates=5, nodes=60)
    root = tempfile.mkdtemp(prefix="bench-coverage-")
    try:
        store_dir = os.path.join(root, "store")
        cold = PlanIngestService(hub=ConverterHub(), persist_to=store_dir)
        cold_report = cold.ingest_batch(corpus)
        cold.checkpoint()
        cold.close()

        def warm_ingest():
            service = PlanIngestService(hub=ConverterHub(), persist_to=store_dir)
            report = service.ingest_batch(corpus)
            service.close()
            return report

        report = benchmark(warm_ingest)
        assert cold_report.conversions == 8
        assert report.conversions == 0  # 100% of conversions skipped
        assert report.index_hits == len(corpus)
    finally:
        shutil.rmtree(root, ignore_errors=True)
