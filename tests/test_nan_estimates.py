"""A NaN or an infinity in the data never becomes a NaN row estimate.

``CAST('nan' AS FLOAT)`` stores a NaN.  Statistics used to take it as a
histogram bound (NaN sorts nowhere, so ``min``/``max`` and the bucket
boundaries came out arbitrary), range selectivity interpolated it to NaN,
and ``EXPLAIN`` died in the dialect's ``int(rows)`` with a bare
``ValueError``.  Every relational dialect, in every format, with and
without ``ANALYZE``, must now render finite integer estimates.
"""

import math
import re

import pytest

from repro.catalog.statistics import collect_column_statistics
from repro.dialects import create_dialect
from repro.dialects.prepared import reset_runtime
from repro.sqlparser.parser import parse_sql

RELATIONAL = ("postgresql", "mysql", "tidb", "sqlite", "sqlserver", "sparksql")
QUERIES = (
    "SELECT * FROM t WHERE a > 1",
    "SELECT * FROM t WHERE a < 1",
    "SELECT * FROM t WHERE a BETWEEN 0 AND 5",
    "SELECT b, COUNT(*) FROM t WHERE a >= 2 GROUP BY b",
    "SELECT * FROM t WHERE a > CAST('nan' AS FLOAT)",
)
NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")
#: The query's own ``'nan'`` literal, echoed in filter descriptions.
QUOTED = re.compile(r"'[^']*'")


@pytest.fixture(params=RELATIONAL)
def dialect(request):
    dialect = create_dialect(request.param)
    dialect.execute("CREATE TABLE t (a FLOAT, b INT)")
    dialect.execute(
        "INSERT INTO t (a, b) VALUES (CAST('nan' AS FLOAT), 1), "
        "(CAST('inf' AS FLOAT), 2), (CAST('-inf' AS FLOAT), 3), (2.0, 1), (0.5, 2)"
    )
    dialect.analyze_tables()
    return dialect


def test_explain_renders_finite_estimates(dialect):
    for query in QUERIES:
        for plan_format in dialect.supported_formats():
            for analyze in (False, True):
                text = dialect.explain(query, format=plan_format, analyze=analyze).text
                unquoted = QUOTED.sub("''", text)
                assert not NON_FINITE.search(unquoted), (query, plan_format, analyze, text)


def test_planned_row_estimates_are_finite(dialect):
    for query in QUERIES:
        plan = reset_runtime(dialect.planner.plan_statement(parse_sql(query)[0]))
        for node in plan.walk():
            assert math.isfinite(node.estimated_rows), (query, node.kind)
            assert node.estimated_rows >= 0


def test_statistics_skip_unordered_values():
    values = [math.nan, 2.0, math.inf, None, -math.inf, 0.5]
    statistics = collect_column_statistics("a", values, is_numeric=True)
    assert statistics.minimum == -math.inf and statistics.maximum == math.inf
    assert statistics.histogram and all(math.isfinite(b) for b in statistics.histogram)
    assert statistics.distinct_values == 5
    for low, high in ((1.0, None), (None, 1.0), (math.nan, None), (None, math.inf)):
        fraction = statistics.range_selectivity(low=low, high=high)
        assert 0.0 <= fraction <= 1.0, (low, high)
    only_infinite = collect_column_statistics("a", [math.inf, -math.inf], is_numeric=True)
    assert not only_infinite.histogram
    assert 0.0 <= only_infinite.range_selectivity(low=0.0) <= 1.0
