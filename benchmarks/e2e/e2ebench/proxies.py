"""Benchmark-owned proxies around the objects the workloads construct.

They sit exactly on a layer boundary the workload already crosses, time the
call through the pass's :class:`~e2ebench.harness.Lane`, and otherwise stay
out of the way: unknown attributes forward to the wrapped object and
exceptions propagate unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sqlparser import parse_one

from e2ebench.harness import Lane


class DialectProxy:
    """Times the four calls a testing campaign makes across the dialect
    boundary; returned from the public ``dialect_factory`` hook."""

    def __init__(self, inner, lane: Lane, log: Optional[List[tuple]] = None) -> None:
        self._inner = inner
        self._lane = lane
        #: When a list, every statement and explain output is appended for
        #: the staged replay (traced pass only).
        self._log = log

    @property
    def name(self) -> str:
        return self._inner.name

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._inner, attribute)

    def execute(self, statement: str):
        if self._log is not None:
            self._log.append(("execute", statement, None, None))
        return self._lane.timed("dialects.execute", self._inner.execute, statement)

    def explain(self, statement: str, format: Optional[str] = None, analyze: bool = False):
        output = self._lane.timed(
            "dialects.explain", self._inner.explain, statement, format=format, analyze=analyze
        )
        if self._log is not None:
            self._log.append(("explain", statement, output.format, output.text))
        return output

    def analyze_tables(self) -> None:
        return self._lane.timed("dialects.analyze_tables", self._inner.analyze_tables)

    def estimated_root_rows(self, statement: str) -> float:
        """The estimate CERT compares.  A direct dialect has no such method —
        ``FaultyDialect`` would plan through ``dialect.planner`` itself — so
        the proxy does that same planning here, where it can be timed."""
        remote = getattr(self._inner, "estimated_root_rows", None)
        if remote is not None:
            return self._lane.timed("dialects.estimated_root_rows", remote, statement)
        return self._lane.timed("dialects.estimated_root_rows", self._plan_estimate, statement)

    def _plan_estimate(self, statement: str) -> float:
        return self._inner.planner.plan_statement(parse_one(statement)).estimated_rows


def prepared_stats(dialects: List[Any]) -> Dict[str, float]:
    """Summed prepared-cache hit rates of the wrapped relational dialects."""
    totals = {"ast": [0, 0], "plan": [0, 0]}
    for dialect in dialects:
        prepared = getattr(dialect, "prepared", None)
        if prepared is None:
            continue
        for key, stats in (("ast", prepared.ast_stats), ("plan", prepared.plan_stats)):
            totals[key][0] += stats.hits
            totals[key][1] += stats.lookups
    return {
        "dialects.prepared_ast_hit_rate": _share(*totals["ast"]),
        "dialects.prepared_plan_hit_rate": _share(*totals["plan"]),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
