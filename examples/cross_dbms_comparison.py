"""Cross-DBMS benchmarking (application A.3): Tables VI/VII and Figure 4.

Runs the TPC-H workload on the five JSON-capable simulated DBMSs, converts
every plan to UPlan, and prints the average operation counts per category, the
Producer-count variance per query, and the query 11 analysis of Listing 4.

Run with:  python examples/cross_dbms_comparison.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.benchmarking import (
    analyse_query11,
    collect_nosql_plans,
    collect_tpch_plans,
    figure4_variances,
    high_variance_queries,
    scan_count_comparison,
    table6_rows,
    table7_rows,
)


def print_table(title, rows):
    print("\n" + title)
    if not rows:
        return
    headers = list(rows[0].keys())
    widths = [max(len(str(h)), max(len(str(r[h])) for r in rows)) for h in headers]
    print("  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths)))


def main() -> None:
    print("Collecting TPC-H plans on MongoDB, MySQL, Neo4j, PostgreSQL, TiDB …")
    plans = collect_tpch_plans(scale=0.5)
    print_table("Table VI — average operations per category (TPC-H)", table6_rows(plans))

    print_table(
        "Table VII — YCSB (MongoDB) and WDBench (Neo4j)",
        table7_rows(collect_nosql_plans(scale=0.5)),
    )

    variances = figure4_variances(plans)
    print("\nFigure 4 — variance of Producer operations per TPC-H query:")
    for query_number in sorted(variances):
        bar = "#" * int(round(variances[query_number]))
        print(f"  Q{query_number:2d} {variances[query_number]:6.2f} {bar}")
    print("High-variance queries (> 2.0):", high_variance_queries(variances, 2.0))

    print("\nListing 4 — TPC-H query 11 analysis (PostgreSQL vs TiDB):")
    analysis = analyse_query11(scale=1.0)
    print("  Producer operations:", scan_count_comparison(analysis))
    for scan in analysis.scan_timings:
        print(f"  {scan.operation:14s} on {scan.table:10s} {scan.milliseconds:7.3f} ms")
    print(f"  Potential saving from removing redundant scans: "
          f"{analysis.potential_saving_fraction:.0%} of execution time")


if __name__ == "__main__":
    main()
