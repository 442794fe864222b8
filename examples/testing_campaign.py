"""DBMS testing with UPlan (application A.1): QPG + CERT + Bound campaign (Table V).

Runs the bounded testing campaign against the fault-injected simulations of
MySQL, PostgreSQL, and TiDB and prints the Table V bug report.  QPG and CERT
find the paper's 17 bugs; the intermediate-size-bound oracle runs too, and
files nothing, because Table V has no bug of its kind.

Run with:  python examples/testing_campaign.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.testing import TestingCampaign


def main() -> None:
    campaign = TestingCampaign(queries_per_dbms=120, cert_pairs_per_dbms=60)
    print("Running QPG, CERT and Bound (DBMS-agnostic, on UPlan) against MySQL, PostgreSQL, TiDB …")
    result = campaign.run()

    print(f"\nQueries generated:        {result.queries_generated}")
    print(f"Structurally unique plans: {result.unique_plans}")
    print(f"CERT pairs checked:        {result.cert_pairs_checked}")
    print(f"Unique bugs found:         {len(result.reports)}")
    print(f"Bugs per DBMS:             {result.by_dbms()}")

    print("\nTable V — previously unknown and unique bugs:")
    header = f"  {'DBMS':12s} {'Found by':8s} {'Bug ID':8s} {'Status':10s} {'Severity':12s}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for row in result.table5_rows():
        print(
            f"  {row['DBMS']:12s} {row['Found by']:8s} {row['Bug ID']:8s} "
            f"{row['Status']:10s} {row['Severity']:12s}"
        )


if __name__ == "__main__":
    main()
