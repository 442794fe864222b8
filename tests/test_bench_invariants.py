"""The benchmark driver must fail loudly on violated invariants.

Every BENCH_*.json snapshot carries an ``invariants`` dict of boolean
acceptance flags (speedup floors, result-equivalence checks).  A false flag
is a perf or correctness regression, so ``run_benchmarks.py`` has to exit
non-zero — CI runs the quick mode and relies on that exit code.  These
tests monkeypatch the executor snapshot collector so neither outcome
depends on machine speed.
"""

import json
import os
import sys

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import bench_executor  # noqa: E402
import bench_optimizer  # noqa: E402
import bench_parallel  # noqa: E402
import bench_service  # noqa: E402
import bench_similarity  # noqa: E402
import run_benchmarks  # noqa: E402


def _fake_snapshot(invariants):
    """A structurally complete executor snapshot with canned numbers."""
    timing = {"seconds": 0.5, "rows_out": 10}
    return {
        "benchmark": "executor",
        "quick": True,
        "numpy_available": True,
        "workloads": {
            "engines": ["row", "vectorized_list", "vectorized_numpy"],
            "workloads": {
                "scan_filter": {
                    "query": "SELECT 1",
                    "row": timing,
                    "vectorized_numpy": timing,
                    "speedup": 12.0,
                    "speedup_numpy": 12.0,
                    "results_identical": True,
                }
            },
        },
        "corpus_execute": {
            "corpus": {"queries": 40, "executed": 40, "seed": 1},
            "row": {"seconds": 1.0, "queries_per_second": 40.0},
            "vectorized_numpy": {"seconds": 0.8, "queries_per_second": 50.0},
            "speedup": 1.25,
        },
        "campaign_equivalence": {"coverage_identical": True, "reports_identical": True},
        "tracked": {"corpus_speedup": 1.25, "scan_filter_speedup": 12.0},
        "invariants": invariants,
    }


@pytest.fixture
def run_executor_only(monkeypatch, tmp_path, capsys):
    """Run the driver's executor section against a patched collector."""

    def run(invariants):
        monkeypatch.setattr(
            bench_executor,
            "collect_snapshot",
            lambda quick=False: _fake_snapshot(invariants),
        )
        output = tmp_path / "BENCH_executor.json"
        code = run_benchmarks.main(
            ["--only", "executor", "--executor-output", str(output)]
        )
        captured = capsys.readouterr()
        return code, json.loads(output.read_text()), captured

    return run


def test_all_invariants_true_exits_zero(run_executor_only):
    code, written, captured = run_executor_only(
        {
            "scan_filter_at_least_2x": True,
            "scan_filter_at_least_10x": True,
            "all_results_identical": True,
            "campaign_coverage_identical": True,
            "campaign_reports_identical": True,
        }
    )
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err
    assert all(written["invariants"].values())


@pytest.mark.parametrize(
    "broken",
    [
        "scan_filter_at_least_10x",
        "all_results_identical",
        "campaign_coverage_identical",
    ],
)
def test_any_false_invariant_exits_nonzero(run_executor_only, broken):
    invariants = {
        "scan_filter_at_least_2x": True,
        "scan_filter_at_least_10x": True,
        "all_results_identical": True,
        "campaign_coverage_identical": True,
        "campaign_reports_identical": True,
    }
    invariants[broken] = False
    code, written, captured = run_executor_only(invariants)
    assert code == 1
    assert "EXECUTOR INVARIANTS VIOLATED" in captured.err
    # The snapshot is still written — the flags stay inspectable after the
    # failing run.
    assert written["invariants"][broken] is False


def test_committed_snapshot_invariants_all_hold():
    """The checked-in BENCH_executor.json must never ship with red flags."""
    path = os.path.join(os.path.dirname(_BENCHMARKS), "BENCH_executor.json")
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["invariants"], "snapshot carries no invariants"
    assert all(snapshot["invariants"].values()), snapshot["invariants"]


def _fake_parallel_snapshot(invariants, cpus=1):
    """A structurally complete parallel snapshot with canned numbers."""
    timing = {"seconds": 0.5}
    return {
        "benchmark": "parallel",
        "quick": True,
        "cpus": cpus,
        "skipped_multicore": cpus < 2,
        "campaign_scaling": {
            "settings": {"seed": 7},
            "shards": 4,
            "serial": {"seconds": 2.0, "rounds": 4, "queries": 48},
            "sharded": {
                "seconds": 0.7,
                "rounds": 4,
                "queries": 48,
                "pool_active": True,
            },
            "speedup": 2.86,
            "coverage_identical": True,
            "reports_identical": True,
            "counters_identical": True,
        },
        "morsel_operators": {
            "rows": 4000,
            "queries": ["SELECT 1"],
            "vectorized": timing,
            "parallel": timing,
            "speedup": 1.0,
            "results_identical": True,
        },
        "invariants": invariants,
    }


_PARALLEL_GREEN = {
    "sharded_coverage_identical": True,
    "sharded_reports_identical": True,
    "sharded_counters_identical": True,
    "morsel_results_identical": True,
    "scaling_at_least_2_5x_on_4_cores": True,
    "scaling_gated": True,
}


@pytest.fixture
def run_parallel_only(monkeypatch, tmp_path, capsys):
    """Run the driver's parallel section against a patched collector."""

    def run(invariants):
        monkeypatch.setattr(
            bench_parallel,
            "collect_snapshot",
            lambda quick=False: _fake_parallel_snapshot(invariants),
        )
        output = tmp_path / "BENCH_parallel.json"
        code = run_benchmarks.main(
            ["--only", "parallel", "--parallel-output", str(output)]
        )
        captured = capsys.readouterr()
        return code, json.loads(output.read_text()), captured

    return run


def test_parallel_green_flags_exit_zero(run_parallel_only):
    code, written, captured = run_parallel_only(dict(_PARALLEL_GREEN))
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err
    assert written["skipped_multicore"] is True  # canned single-core host


def test_parallel_gated_flag_is_informational(run_parallel_only):
    # scaling_gated=False means the floor WAS judged; the flag itself must
    # never flip the exit code in either direction.
    flags = dict(_PARALLEL_GREEN, scaling_gated=False)
    code, _, captured = run_parallel_only(flags)
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err


@pytest.mark.parametrize(
    "broken",
    [
        "sharded_coverage_identical",
        "sharded_reports_identical",
        "morsel_results_identical",
        "scaling_at_least_2_5x_on_4_cores",
    ],
)
def test_parallel_false_invariant_exits_nonzero(run_parallel_only, broken):
    flags = dict(_PARALLEL_GREEN)
    flags[broken] = False
    code, written, captured = run_parallel_only(flags)
    assert code == 1
    assert "PARALLEL INVARIANTS VIOLATED" in captured.err
    assert written["invariants"][broken] is False


def test_parallel_snapshot_gates_scaling_by_environment(monkeypatch):
    # On this host (or any host failing the cpus/pool/quick gate) the
    # speedup floor must pass vacuously and scaling_gated must say so;
    # the correctness flags are still real measurements.
    snapshot = bench_parallel.collect_snapshot(quick=True)
    assert snapshot["skipped_multicore"] == (snapshot["cpus"] < 2)
    assert snapshot["invariants"]["scaling_gated"] is True  # quick => gated
    assert snapshot["invariants"]["scaling_at_least_2_5x_on_4_cores"] is True
    assert snapshot["invariants"]["sharded_coverage_identical"] is True
    assert snapshot["invariants"]["sharded_reports_identical"] is True
    assert snapshot["invariants"]["morsel_results_identical"] is True


def test_committed_parallel_snapshot_invariants_all_hold():
    """The checked-in BENCH_parallel.json must never ship with red flags."""
    path = os.path.join(os.path.dirname(_BENCHMARKS), "BENCH_parallel.json")
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["invariants"], "snapshot carries no invariants"
    assert all(snapshot["invariants"].values()), snapshot["invariants"]
    assert "skipped_multicore" in snapshot


def _fake_optimizer_snapshot(invariants):
    """A structurally complete optimizer snapshot with canned numbers."""
    return {
        "benchmark": "optimizer",
        "quick": True,
        "chain_join": {
            "rows_per_table": 10,
            "tables": 5,
            "repeats": 3,
            "query": "SELECT 1",
            "optimized_seconds": 0.001,
            "as_written_seconds": 0.2,
            "speedup": 200.0,
            "count": 10,
            "results_identical": True,
        },
        "bound_oracle": {"query": "SELECT 1", "violations": [], "no_violations": True},
        "corpus_equivalence": {"seed": 1, "queries": 40, "mismatches": 0, "identical": True},
        "campaign_equivalence": {
            "queries_per_dbms": 8,
            "cert_pairs_per_dbms": 3,
            "unique_plans_optimized": 7,
            "unique_plans_as_written": 8,
            "bound_queries_checked": 10,
            "reports_identical": True,
        },
        "tracked": {"chain_join_speedup": 200.0},
        "invariants": invariants,
    }


_OPTIMIZER_GREEN = {
    "chain_join_at_least_50x": True,
    "chain_results_identical": True,
    "corpus_results_identical": True,
    "campaign_reports_identical": True,
    "no_bound_violations": True,
}


@pytest.fixture
def run_optimizer_only(monkeypatch, tmp_path, capsys):
    """Run the driver's optimizer section against a patched collector."""

    def run(invariants):
        monkeypatch.setattr(
            bench_optimizer,
            "collect_snapshot",
            lambda quick=False: _fake_optimizer_snapshot(invariants),
        )
        output = tmp_path / "BENCH_optimizer.json"
        code = run_benchmarks.main(
            ["--only", "optimizer", "--optimizer-output", str(output)]
        )
        captured = capsys.readouterr()
        return code, json.loads(output.read_text()), captured

    return run


def test_optimizer_green_flags_exit_zero(run_optimizer_only):
    code, written, captured = run_optimizer_only(dict(_OPTIMIZER_GREEN))
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err
    assert all(written["invariants"].values())


@pytest.mark.parametrize(
    "broken",
    [
        "chain_join_at_least_50x",
        "chain_results_identical",
        "corpus_results_identical",
        "campaign_reports_identical",
        "no_bound_violations",
    ],
)
def test_optimizer_false_invariant_exits_nonzero(run_optimizer_only, broken):
    flags = dict(_OPTIMIZER_GREEN)
    flags[broken] = False
    code, written, captured = run_optimizer_only(flags)
    assert code == 1
    assert "OPTIMIZER INVARIANTS VIOLATED" in captured.err
    assert written["invariants"][broken] is False


def _fake_service_snapshot(invariants, cpus=1):
    """A structurally complete service snapshot with canned numbers."""
    return {
        "benchmark": "service",
        "quick": True,
        "cpus": cpus,
        "concurrent_clients": 8,
        "read_throughput": {
            "clients": 8,
            "speedup": 3.1,
            "serial": {"seconds": 1.0, "ops": 240},
            "concurrent": {
                "seconds": 0.32,
                "ops": 240,
                "p50_ms": 4.0,
                "p99_ms": 11.0,
            },
            "all_clients_completed": True,
        },
        "isolation": {"consistent": True, "torn_reads": 0, "reads": 90},
        "ddl_and_leakage": {
            "ddl_linearizable": True,
            "zero_leakage": True,
            "leaks": 0,
        },
        "campaign_equivalence": {"identical": True},
        "invariants": invariants,
    }


_SERVICE_GREEN = {
    "isolation_reads_consistent": True,
    "ddl_linearizable": True,
    "zero_cross_tenant_leakage": True,
    "campaign_through_service_identical": True,
    "all_clients_completed": True,
    "concurrent_read_speedup_at_least_2_5x": True,
    "scaling_gated": True,
}


@pytest.fixture
def run_service_only(monkeypatch, tmp_path, capsys):
    """Run the driver's service section against a patched collector."""

    def run(invariants):
        monkeypatch.setattr(
            bench_service,
            "collect_snapshot",
            lambda quick=False: _fake_service_snapshot(invariants),
        )
        output = tmp_path / "BENCH_service.json"
        code = run_benchmarks.main(
            ["--only", "service", "--service-output", str(output)]
        )
        captured = capsys.readouterr()
        return code, json.loads(output.read_text()), captured

    return run


def test_service_green_flags_exit_zero(run_service_only):
    code, written, captured = run_service_only(dict(_SERVICE_GREEN))
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err
    assert all(written["invariants"].values())


def test_service_gated_flag_is_informational(run_service_only):
    # scaling_gated=False means the speedup floor WAS judged; the flag
    # itself must never flip the exit code in either direction.
    flags = dict(_SERVICE_GREEN, scaling_gated=False)
    code, _, captured = run_service_only(flags)
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err


@pytest.mark.parametrize(
    "broken",
    [
        "isolation_reads_consistent",
        "ddl_linearizable",
        "zero_cross_tenant_leakage",
        "campaign_through_service_identical",
        "all_clients_completed",
        "concurrent_read_speedup_at_least_2_5x",
    ],
)
def test_service_false_invariant_exits_nonzero(run_service_only, broken):
    flags = dict(_SERVICE_GREEN)
    flags[broken] = False
    code, written, captured = run_service_only(flags)
    assert code == 1
    assert "SERVICE INVARIANTS VIOLATED" in captured.err
    assert written["invariants"][broken] is False


def test_service_snapshot_gates_scaling_by_environment():
    # Quick mode (or a small host) gates the speedup floor; the
    # correctness flags are still real measurements and must hold.
    snapshot = bench_service.collect_snapshot(quick=True)
    assert snapshot["concurrent_clients"] >= 8
    assert snapshot["invariants"]["scaling_gated"] is True  # quick => gated
    assert snapshot["invariants"]["concurrent_read_speedup_at_least_2_5x"] is True
    assert snapshot["invariants"]["isolation_reads_consistent"] is True
    assert snapshot["invariants"]["ddl_linearizable"] is True
    assert snapshot["invariants"]["zero_cross_tenant_leakage"] is True
    assert snapshot["invariants"]["campaign_through_service_identical"] is True


def test_committed_service_snapshot_invariants_all_hold():
    """The checked-in BENCH_service.json must never ship with red flags."""
    path = os.path.join(os.path.dirname(_BENCHMARKS), "BENCH_service.json")
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["invariants"], "snapshot carries no invariants"
    assert all(snapshot["invariants"].values()), snapshot["invariants"]
    assert snapshot["concurrent_clients"] >= 8
    assert snapshot["quick"] is False


def test_committed_optimizer_snapshot_invariants_all_hold():
    """The checked-in BENCH_optimizer.json must never ship with red flags."""
    path = os.path.join(os.path.dirname(_BENCHMARKS), "BENCH_optimizer.json")
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["invariants"], "snapshot carries no invariants"
    assert all(snapshot["invariants"].values()), snapshot["invariants"]
    # The tentpole acceptance number: the committed (full-mode) snapshot
    # must record the ≥ 50x chain-join win, measured, not gated away.
    assert snapshot["quick"] is False
    assert snapshot["chain_join"]["speedup"] >= 50.0


def _fake_similarity_snapshot(invariants):
    """A structurally complete similarity snapshot with canned numbers."""
    return {
        "benchmark": "similarity",
        "quick": True,
        "numpy_available": True,
        "embedding": {
            "plans": 40,
            "dimensions": 40,
            "seconds": 0.05,
            "deterministic": True,
            "integer_valued": True,
        },
        "index_queries": {
            "entries": 40,
            "probes": 20,
            "k": 3,
            "seconds": 0.01,
            "queries_per_second": 2000.0,
            "numpy_available": True,
            "numpy_list_identical": True,
            "self_nearest_all_zero": True,
        },
        "merge_identity": {
            "entries": 40,
            "layouts": [[3, 16, 5], [16, 1, 3]],
            "union_exact": True,
            "order_and_layout_independent": True,
            "idempotent": True,
        },
        "campaign_modes": {
            "settings": {"queries_per_dbms": 12},
            "exact_reports": 5,
            "exact_mode_inert": True,
            "similarity_reports": 5,
            "similarity_indexed_plans": 18,
            "novelty_reward_total": 3.25,
            "similarity_deterministic": True,
            "cluster_sizes": [2, 3],
            "clusters_cover_all_reports": True,
        },
        "tracked": {"query_throughput": 2000.0, "indexed_entries": 40},
        "invariants": invariants,
    }


_SIMILARITY_GREEN = {
    "embedding_deterministic": True,
    "embedding_integer_valued": True,
    "numpy_list_identical": True,
    "self_nearest_all_zero": True,
    "merge_union_exact": True,
    "merge_order_and_layout_independent": True,
    "merge_idempotent": True,
    "exact_mode_inert": True,
    "similarity_campaign_deterministic": True,
    "clusters_cover_all_reports": True,
    "query_throughput_at_least_25_per_second": True,
}


@pytest.fixture
def run_similarity_only(monkeypatch, tmp_path, capsys):
    """Run the driver's similarity section against a patched collector."""

    def run(invariants):
        monkeypatch.setattr(
            bench_similarity,
            "collect_snapshot",
            lambda quick=False: _fake_similarity_snapshot(invariants),
        )
        output = tmp_path / "BENCH_similarity.json"
        code = run_benchmarks.main(
            ["--only", "similarity", "--similarity-output", str(output)]
        )
        captured = capsys.readouterr()
        return code, json.loads(output.read_text()), captured

    return run


def test_similarity_green_flags_exit_zero(run_similarity_only):
    code, written, captured = run_similarity_only(dict(_SIMILARITY_GREEN))
    assert code == 0
    assert "INVARIANTS VIOLATED" not in captured.err
    assert all(written["invariants"].values())


@pytest.mark.parametrize(
    "broken",
    [
        "embedding_deterministic",
        "numpy_list_identical",
        "self_nearest_all_zero",
        "merge_order_and_layout_independent",
        "exact_mode_inert",
        "similarity_campaign_deterministic",
        "query_throughput_at_least_25_per_second",
    ],
)
def test_similarity_false_invariant_exits_nonzero(run_similarity_only, broken):
    flags = dict(_SIMILARITY_GREEN)
    flags[broken] = False
    code, written, captured = run_similarity_only(flags)
    assert code == 1
    assert "SIMILARITY INVARIANTS VIOLATED" in captured.err
    assert written["invariants"][broken] is False


def test_committed_similarity_snapshot_invariants_all_hold():
    """The checked-in BENCH_similarity.json must never ship with red flags."""
    path = os.path.join(os.path.dirname(_BENCHMARKS), "BENCH_similarity.json")
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["invariants"], "snapshot carries no invariants"
    assert all(snapshot["invariants"].values()), snapshot["invariants"]
    # The committed snapshot is the full-mode run: exact-mode inertness and
    # similarity determinism measured on the full campaign sizes.
    assert snapshot["quick"] is False
    assert snapshot["embedding"]["dimensions"] == 40
