"""E-L4 — Listing 4: the TPC-H query 11 scan analysis and the ≈27 % saving estimate."""

from repro.benchmarking import analyse_query11, scan_count_comparison, unified_text


def _analyse():
    return analyse_query11(scale=1.0)


def test_listing4_query11_analysis(benchmark):
    analysis = benchmark.pedantic(_analyse, rounds=1, iterations=1)
    comparison = scan_count_comparison(analysis)
    benchmark.extra_info["producer_counts"] = comparison
    benchmark.extra_info["scan_timings_ms"] = {
        f"{scan.operation}:{scan.table}": round(scan.milliseconds, 3)
        for scan in analysis.scan_timings
    }
    benchmark.extra_info["potential_saving"] = round(analysis.potential_saving_fraction, 3)
    # PostgreSQL references partsupp / supplier / nation twice → six table scans.
    assert comparison["postgresql"] == 6
    # The redundant re-scans account for a substantial fraction of execution
    # time (the paper estimates 27 %); the simulated engine lands in the same
    # range.
    assert 0.05 <= analysis.potential_saving_fraction <= 0.6
    # Both unified plans can be printed in the Listing 4 text form.
    assert "Producer->Full Table Scan" in unified_text(analysis.postgresql_plan)
    assert "partsupp" in unified_text(analysis.tidb_plan)
