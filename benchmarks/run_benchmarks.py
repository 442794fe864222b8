"""Benchmark driver: run the bench suites and write the perf snapshots.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # snapshots only
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke (small corpora)
    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite    # + full pytest-benchmark run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --output somewhere.json

Nine snapshots are written:

* ``BENCH_pipeline.json`` — batched-vs-single ingestion and
  fingerprint-vs-deep-compare speedup, with the service statistics proving
  the dedup invariant (conversions happen only for unique source texts);
* ``BENCH_coverage.json`` — warm-start ingest over a persisted
  :class:`~repro.pipeline.CoverageStore` (how many conversions the
  persistent source index skips);
* ``BENCH_campaign.json`` — end-to-end QPG queries/sec with cold vs warm
  prepared-query/conversion caches, a per-stage lifecycle profile, and the
  cache-on vs cache-off campaign-equivalence check;
* ``BENCH_executor.json`` — row vs list-vectorized vs numpy-vectorized
  executor throughput on scan/filter/join/aggregate/sort workloads
  (numpy-vectorized must win the scan+filter microbench by ≥ 10x when
  numpy is installed; list-vectorized keeps the ≥ 2x floor) plus the
  generator-corpus execute pass and the row-vs-vectorized campaign
  coverage/Table V equivalence check;
* ``BENCH_decorrelate.json`` — decorrelated hash semi/anti joins vs the
  per-row subquery oracle (the IN-subquery microbench must win by ≥ 5x),
  the operator-name universe growth, and the warm QPG floor;
* ``BENCH_parallel.json`` — sharded-campaign scaling vs serial (the
  merged coverage/Table V byte-identity flags are enforced everywhere;
  the ≥ 2.5x four-shard speedup floor only on ≥ 4-CPU hosts with a real
  process pool) and the morsel-driven engine's result identity;
* ``BENCH_optimizer.json`` — cost-based multi-join optimization vs the
  as-written plan oracle (the five-table chain join must win by ≥ 50x
  with identical results), the corpus/campaign toggle-equivalence flags,
  and the intermediate-size-bound oracle check;
* ``BENCH_service.json`` — the query service under eight concurrent
  clients: read throughput vs single-client serial with p50/p99 latency
  (the ≥ 2.5x floor only on ≥ 4-CPU full-size runs, mirroring the
  parallel snapshot's gating), plus the always-enforced isolation,
  linearizable-DDL, zero-leakage, and campaign-through-service
  byte-identity flags;
* ``BENCH_similarity.json`` — the plan-similarity layer: embedding
  determinism and integer-valuedness, nearest-neighbour query throughput
  with the numpy-vs-list bit-identity flag, the index merge algebra
  across shard layouts, and the campaign-mode checks (``novelty="exact"``
  inert, ``novelty="similarity"`` deterministic).

``--only pipeline|coverage|campaign|executor|decorrelate|parallel|optimizer|service|similarity``
restricts the run to one snapshot.
``--quick`` shrinks the corpora so the whole driver finishes in seconds —
that is the mode CI smoke-runs.  The tier-1 test suite the snapshots should
always be accompanied by is::

    PYTHONPATH=src python -m pytest -x -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro import __version__  # noqa: E402
from repro.converters import ConverterHub  # noqa: E402
from repro.pipeline import PlanIngestService, PlanSource  # noqa: E402

import bench_campaign  # noqa: E402
import bench_coverage  # noqa: E402
import bench_decorrelate  # noqa: E402
import bench_executor  # noqa: E402
import bench_optimizer  # noqa: E402
import bench_parallel  # noqa: E402
import bench_pipeline  # noqa: E402
import bench_service  # noqa: E402
import bench_similarity  # noqa: E402


def _time_ingest(batched: bool, raws, repeats: int = 5) -> dict:
    best = None
    stats = None
    for _ in range(repeats):
        service = PlanIngestService(hub=ConverterHub())
        sources = [PlanSource("postgresql", raw, "json") for raw in raws]
        started = time.perf_counter()
        if batched:
            service.ingest_batch(sources)
        else:
            for source in sources:
                service.ingest(source)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
            stats = service.stats.to_dict()
    return {"seconds": best, "plans_per_second": len(raws) / best, "stats": stats}


def collect_snapshot(quick: bool = False) -> dict:
    raws, unique_count = bench_pipeline._raw_corpus()
    if quick:
        raws = raws[: max(unique_count, len(raws) // 5)]
    repeats = 1 if quick else 5
    single = _time_ingest(batched=False, raws=raws, repeats=repeats)
    batched = _time_ingest(batched=True, raws=raws, repeats=repeats)
    fingerprint = bench_pipeline.measure_fingerprint_speedup(
        iterations=200 if quick else 2000
    )
    return {
        "benchmark": "pipeline",
        "version": __version__,
        "python": platform.python_version(),
        "corpus": {"sources": len(raws), "unique_source_texts": unique_count},
        "ingest_single": single,
        "ingest_batched": batched,
        "batched_speedup": single["seconds"] / batched["seconds"],
        "fingerprint_equality": fingerprint,
        "invariants": {
            "conversions_only_for_unique_sources": (
                batched["stats"]["conversions"] == unique_count
            ),
            "fingerprint_at_least_10x": fingerprint["speedup"] >= 10.0,
        },
    }


def run_full_suite() -> int:
    """Run the whole pytest-benchmark suite (all bench_*.py modules).

    The modules are named explicitly because ``bench_*.py`` does not match
    pytest's default collection patterns.
    """
    import glob

    modules = sorted(glob.glob(os.path.join(_HERE, "bench_*.py")))
    command = [
        sys.executable,
        "-m",
        "pytest",
        *modules,
        "-q",
        "--benchmark-disable-gc",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.call(command, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_pipeline.json"),
        help="where to write the pipeline perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--coverage-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_coverage.json"),
        help="where to write the coverage perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--campaign-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_campaign.json"),
        help="where to write the campaign perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--executor-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_executor.json"),
        help="where to write the executor perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--decorrelate-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_decorrelate.json"),
        help="where to write the decorrelation perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--parallel-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_parallel.json"),
        help="where to write the parallel perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--optimizer-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_optimizer.json"),
        help="where to write the optimizer perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--service-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_service.json"),
        help="where to write the service perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--similarity-output",
        default=os.path.join(os.path.dirname(_HERE), "BENCH_similarity.json"),
        help="where to write the similarity perf snapshot (default: repo root)",
    )
    parser.add_argument(
        "--only",
        choices=[
            "pipeline",
            "coverage",
            "campaign",
            "executor",
            "decorrelate",
            "parallel",
            "optimizer",
            "service",
            "similarity",
        ],
        default=None,
        help="run just one snapshot instead of all nine",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpora / single repeats — the CI smoke mode",
    )
    parser.add_argument(
        "--suite",
        action="store_true",
        help="also run the full pytest-benchmark suite after the snapshots",
    )
    args = parser.parse_args(argv)

    def write_snapshot(payload: dict, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")

    violated = False

    if args.only in (None, "pipeline"):
        snapshot = collect_snapshot(quick=args.quick)
        write_snapshot(snapshot, args.output)
        print(
            "batched ingest: {:.1f}x faster than single; fingerprint equality: "
            "{:.0f}x faster than deep compare".format(
                snapshot["batched_speedup"], snapshot["fingerprint_equality"]["speedup"]
            )
        )
        if not all(snapshot["invariants"].values()):
            print(
                "PIPELINE INVARIANTS VIOLATED:", snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "coverage"):
        coverage_snapshot = bench_coverage.collect_snapshot(quick=args.quick)
        write_snapshot(coverage_snapshot, args.coverage_output)
        warm = coverage_snapshot["warm_start"]
        print(
            "warm-start ingest: skipped {:.0f}% of conversions ({:.1f}x faster)".format(
                warm["skip_ratio"] * 100, warm["warm_speedup"]
            )
        )
        if not all(coverage_snapshot["invariants"].values()):
            print(
                "COVERAGE INVARIANTS VIOLATED:", coverage_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "campaign"):
        campaign_snapshot = bench_campaign.collect_snapshot(quick=args.quick)
        write_snapshot(campaign_snapshot, args.campaign_output)
        loop = campaign_snapshot["qpg_loop"]
        equivalence = campaign_snapshot["cache_equivalence"]
        print(
            "QPG loop: {:.0f} q/s cold, {:.0f} q/s warm ({:.2f}x); "
            "cache-off campaign identical: coverage={} reports={}".format(
                loop["cold"]["queries_per_second"],
                loop["warm"]["queries_per_second"],
                loop["warm_speedup"],
                equivalence["coverage_identical"],
                equivalence["reports_identical"],
            )
        )
        if not all(campaign_snapshot["invariants"].values()):
            print(
                "CAMPAIGN INVARIANTS VIOLATED:", campaign_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "executor"):
        executor_snapshot = bench_executor.collect_snapshot(quick=args.quick)
        write_snapshot(executor_snapshot, args.executor_output)
        scan_filter = executor_snapshot["workloads"]["workloads"]["scan_filter"]
        corpus = executor_snapshot["corpus_execute"]
        engines = executor_snapshot["workloads"]["engines"]
        best_engine = engines[-1]
        print(
            "executor ({}): scan+filter {:.2f}x, corpus execute {:.0f} q/s row "
            "vs {:.0f} q/s {} ({:.2f}x); campaign coverage identical: {}".format(
                "+".join(engines),
                scan_filter["speedup"],
                corpus["row"]["queries_per_second"],
                corpus[best_engine]["queries_per_second"],
                best_engine,
                corpus["speedup"],
                executor_snapshot["campaign_equivalence"]["coverage_identical"],
            )
        )
        if not all(executor_snapshot["invariants"].values()):
            print(
                "EXECUTOR INVARIANTS VIOLATED:", executor_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "decorrelate"):
        decorrelate_snapshot = bench_decorrelate.collect_snapshot(quick=args.quick)
        write_snapshot(decorrelate_snapshot, args.decorrelate_output)
        in_workload = decorrelate_snapshot["microbench"]["workloads"]["in_semi_join"]
        universe = decorrelate_snapshot["operator_universe"]
        print(
            "decorrelate: IN-subquery {:.1f}x, NOT IN {:.1f}x; operator "
            "universe {} -> {} names; warm QPG {:.0f} q/s".format(
                in_workload["speedup"],
                decorrelate_snapshot["microbench"]["workloads"][
                    "not_in_anti_join"
                ]["speedup"],
                universe["per_row_size"],
                universe["decorrelated_size"],
                decorrelate_snapshot["warm_qpg"]["pr4_corpus"][
                    "warm_queries_per_second"
                ],
            )
        )
        if not all(decorrelate_snapshot["invariants"].values()):
            print(
                "DECORRELATE INVARIANTS VIOLATED:",
                decorrelate_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "parallel"):
        parallel_snapshot = bench_parallel.collect_snapshot(quick=args.quick)
        write_snapshot(parallel_snapshot, args.parallel_output)
        scaling = parallel_snapshot["campaign_scaling"]
        morsel = parallel_snapshot["morsel_operators"]
        print(
            "parallel: {}-shard campaign {:.2f}x vs serial on {} cpu(s) "
            "(pool_active={}); coverage identical: {}; morsel engine "
            "{:.2f}x, results identical: {}".format(
                scaling["shards"],
                scaling["speedup"],
                parallel_snapshot["cpus"],
                scaling["sharded"]["pool_active"],
                scaling["coverage_identical"],
                morsel["speedup"],
                morsel["results_identical"],
            )
        )
        parallel_invariants = dict(parallel_snapshot["invariants"])
        parallel_invariants.pop("scaling_gated", None)  # informational
        if not all(parallel_invariants.values()):
            print(
                "PARALLEL INVARIANTS VIOLATED:", parallel_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "optimizer"):
        optimizer_snapshot = bench_optimizer.collect_snapshot(quick=args.quick)
        write_snapshot(optimizer_snapshot, args.optimizer_output)
        chain = optimizer_snapshot["chain_join"]
        print(
            "optimizer: 5-table chain join {:.0f}x vs as-written "
            "(results identical: {}); corpus identical: {}; campaign "
            "reports identical: {}; bound violations: {}".format(
                chain["speedup"],
                chain["results_identical"],
                optimizer_snapshot["corpus_equivalence"]["identical"],
                optimizer_snapshot["campaign_equivalence"]["reports_identical"],
                len(optimizer_snapshot["bound_oracle"]["violations"]),
            )
        )
        if not all(optimizer_snapshot["invariants"].values()):
            print(
                "OPTIMIZER INVARIANTS VIOLATED:",
                optimizer_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "service"):
        service_snapshot = bench_service.collect_snapshot(quick=args.quick)
        write_snapshot(service_snapshot, args.service_output)
        throughput = service_snapshot["read_throughput"]
        print(
            "service: {} concurrent clients {:.2f}x vs single-client serial "
            "on {} cpu(s) (p50 {:.1f} ms, p99 {:.1f} ms); isolation={} "
            "ddl_linearizable={} zero_leakage={} campaign identical: {}".format(
                throughput["clients"],
                throughput["speedup"],
                service_snapshot["cpus"],
                throughput["concurrent"]["p50_ms"],
                throughput["concurrent"]["p99_ms"],
                service_snapshot["isolation"]["consistent"],
                service_snapshot["ddl_and_leakage"]["ddl_linearizable"],
                service_snapshot["ddl_and_leakage"]["zero_leakage"],
                service_snapshot["campaign_equivalence"]["identical"],
            )
        )
        service_invariants = dict(service_snapshot["invariants"])
        service_invariants.pop("scaling_gated", None)  # informational
        if not all(service_invariants.values()):
            print(
                "SERVICE INVARIANTS VIOLATED:", service_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if args.only in (None, "similarity"):
        similarity_snapshot = bench_similarity.collect_snapshot(quick=args.quick)
        write_snapshot(similarity_snapshot, args.similarity_output)
        queries = similarity_snapshot["index_queries"]
        campaigns = similarity_snapshot["campaign_modes"]
        print(
            "similarity: {:.0f} NN q/s over {} entries (numpy/list identical: "
            "{}); merges layout-independent: {}; exact mode inert: {}; "
            "similarity campaigns deterministic: {} ({} plans indexed)".format(
                queries["queries_per_second"],
                queries["entries"],
                queries["numpy_list_identical"],
                similarity_snapshot["merge_identity"][
                    "order_and_layout_independent"
                ],
                campaigns["exact_mode_inert"],
                campaigns["similarity_deterministic"],
                campaigns["similarity_indexed_plans"],
            )
        )
        if not all(similarity_snapshot["invariants"].values()):
            print(
                "SIMILARITY INVARIANTS VIOLATED:",
                similarity_snapshot["invariants"],
                file=sys.stderr,
            )
            violated = True

    if violated:
        return 1
    if args.suite:
        return run_full_suite()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
