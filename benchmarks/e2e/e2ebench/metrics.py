"""The metric and workload names every later issue refers to.

``BENCHMARK.json`` at the repository root is generated from these tables
(``run.py --manifest``) and ``test_harness.py`` checks the two agree.  A
per-layer row also says which end-to-end metric it is expected to move and
on which workload — the prediction a later change is judged against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    "campaign": (
        "QPG/CERT/Bound campaigns on tiny fresh databases: cold statements, so "
        "sqlparser, optimizer, dialect explain, converters and testing do the work"
    ),
    "plan_ingest": (
        "batched ingest of ~4k unique plan texts from all nine converters, 4x the "
        "hub cache, then store reopen and similarity: converters, core, pipeline"
    ),
    "tpch_exec": (
        "hot TPC-H statements on one loaded database: prepared cache hits, so engine "
        "and storage snapshots do the work, the mirror image of campaign"
    ),
    "service_mix": (
        "two closed-loop clients through the query service, reads beside writes that "
        "invalidate cached plans and snapshots: wire, gate, dispatch, GIL"
    ),
}

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.20),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: The 17 (dbms, format) pairs the nine converters parse and the dialects emit.
CONVERTER_FORMATS: List[Tuple[str, str]] = [
    ("influxdb", "text"),
    ("mongodb", "json"),
    ("mysql", "json"), ("mysql", "table"), ("mysql", "tree"),
    ("neo4j", "json"), ("neo4j", "text"),
    ("postgresql", "json"), ("postgresql", "text"),
    ("sparksql", "text"),
    ("sqlite", "text"),
    ("sqlserver", "table"), ("sqlserver", "text"), ("sqlserver", "xml"),
    ("tidb", "json"), ("tidb", "table"), ("tidb", "text"),
]

#: (name, unit, better, moves): *moves* names the end-to-end metric and
#: workload the layer metric is predicted to move.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    # sqlparser
    ("sqlparser.lex_us", "us", "lower", "campaign throughput_per_s, op_p50_ms; service_mix writes"),
    ("sqlparser.parse_us", "us", "lower", "campaign throughput_per_s, op_p50_ms; service_mix writes"),
    # optimizer
    ("optimizer.plan_us", "us", "lower", "campaign throughput_per_s; service_mix op_p95_ms (re-plan after a write)"),
    # engine
    ("engine.execute_us", "us", "lower", "tpch_exec throughput_per_s, op_p50_ms"),
    ("engine.row_ratio", "ratio", "higher", "tpch_exec throughput_per_s (row sweep / vectorized sweep)"),
    ("engine.parallel_ratio", "ratio", "lower", "tpch_exec throughput_per_s (parallel sweep / vectorized sweep)"),
    ("engine.tpch_queries_failing", "count", "lower", "none: TPC-H queries that raise, kept out of the timed list"),
    # storage / catalog
    ("storage.load_rows_per_s", "1/s", "higher", "setup_s on tpch_exec, service_mix"),
    ("catalog.analyze_ms", "ms", "lower", "setup_s on tpch_exec, service_mix"),
    ("storage.snapshot_rebuild_ms", "ms", "lower", "service_mix op_p95_ms"),
    # dialects
    ("dialects.execute_ms_p50", "ms", "lower", "campaign, tpch_exec op_p50_ms"),
    ("dialects.explain_ms_p50", "ms", "lower", "campaign, tpch_exec op_p50_ms"),
    ("dialects.time_share", "ratio", "lower", "campaign throughput_per_s"),
    ("dialects.shape_us", "us", "lower", "campaign throughput_per_s"),
    ("dialects.serialize_us", "us", "lower", "campaign throughput_per_s"),
    ("dialects.prepared_ast_hit_rate", "ratio", "higher", "service_mix, tpch_exec op_p50_ms"),
    ("dialects.prepared_plan_hit_rate", "ratio", "higher", "service_mix, tpch_exec op_p50_ms"),
    # converters / core
    ("converters.convert_us", "us", "lower", "plan_ingest throughput_per_s, op_p50_ms"),
    *[
        (f"converters.convert_us.{dbms}.{fmt}", "us", "lower", "plan_ingest throughput_per_s")
        for dbms, fmt in CONVERTER_FORMATS
    ],
    ("converters.cache_hit_rate", "ratio", "higher", "plan_ingest throughput_per_s"),
    ("converters.cache_evictions", "count", "lower", "plan_ingest throughput_per_s"),
    ("core.fingerprint_us", "us", "lower", "plan_ingest throughput_per_s"),
    ("core.structural_fingerprint_us", "us", "lower", "plan_ingest, campaign throughput_per_s"),
    ("core.plan_nodes_mean", "count", "lower", "none: input size of the converters"),
    # pipeline
    ("pipeline.ingest_us_per_source", "us", "lower", "plan_ingest throughput_per_s"),
    ("pipeline.dedup_ratio", "ratio", "lower", "none: unique plans / sources, an input property"),
    ("pipeline.index_hit_rate", "ratio", "higher", "plan_ingest op_p50_ms (warm-start half)"),
    ("pipeline.store_append_us", "us", "lower", "plan_ingest throughput_per_s"),
    ("pipeline.store_checkpoint_ms", "ms", "lower", "plan_ingest op_p95_ms"),
    ("pipeline.store_open_ms", "ms", "lower", "plan_ingest throughput_per_s"),
    ("pipeline.store_bytes_per_entry", "B", "lower", "plan_ingest store_checkpoint_ms, store_open_ms"),
    # similarity
    ("similarity.embed_us", "us", "lower", "plan_ingest throughput_per_s"),
    ("similarity.score_add_us", "us", "lower", "plan_ingest throughput_per_s"),
    ("similarity.query_us", "us", "lower", "plan_ingest throughput_per_s"),
    ("similarity.save_ms", "ms", "lower", "plan_ingest throughput_per_s"),
    ("similarity.open_ms", "ms", "lower", "plan_ingest throughput_per_s"),
    # testing / parallel
    ("testing.generate_us", "us", "lower", "campaign throughput_per_s"),
    ("testing.self_share", "ratio", "lower", "campaign throughput_per_s"),
    ("testing.reports", "count", "higher", "none: must repeat exactly"),
    ("testing.unique_plans", "count", "higher", "none: must repeat exactly"),
    ("testing.dialect_calls", "count", "lower", "none: must repeat exactly"),
    ("parallel.sharded_ratio", "ratio", "lower", "campaign throughput_per_s (2 shards / serial)"),
    # service
    ("service.read_p50_ms", "ms", "lower", "service_mix op_p50_ms"),
    ("service.write_p50_ms", "ms", "lower", "service_mix op_p95_ms"),
    ("service.explain_p50_ms", "ms", "lower", "service_mix op_p50_ms"),
    ("service.read_p99_ms", "ms", "lower", "service_mix op_p95_ms"),
    ("service.write_p99_ms", "ms", "lower", "service_mix op_p95_ms"),
    ("service.overhead_ms", "ms", "lower", "service_mix op_p50_ms"),
    ("service.wire_bytes_per_op", "B", "lower", "service_mix op_p50_ms"),
    ("service.wire_codec_us", "us", "lower", "service_mix op_p50_ms"),
    ("service.concurrency_ratio", "ratio", "lower", "service_mix throughput_per_s (1 client / 2 clients)"),
    ("service.process_dispatch_ratio", "ratio", "higher", "service_mix throughput_per_s (process / thread dispatch)"),
    ("service.open_loop_p50_ms", "ms", "lower", "service_mix op_p50_ms"),
    ("service.open_loop_p99_ms", "ms", "lower", "service_mix op_p95_ms"),
    ("service.open_loop_late_ms", "ms", "lower", "none: how late the generator ran"),
    # process / host
    ("proc.import_s", "s", "lower", "setup_s everywhere"),
    ("proc.cpu_ms_per_unit", "ms", "lower", "throughput_per_s everywhere"),
    ("proc.gc_gen2_collections", "count", "lower", "op_p95_ms everywhere"),
    ("host.calib_ms", "ms", "lower", "none: identifies a disturbed run"),
    ("host.calib_drift", "ratio", "lower", "none: identifies a disturbed run"),
    ("trace.overhead_share", "ratio", "lower", "none: cost of the traced pass"),
]

#: Seconds one run measures at the sizes the chunk lists were cut for.
RUN_SECONDS = 14


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }
