"""The prepared-query cache: memoised lex→parse→plan for the campaign hot path.

Differential-testing campaigns (QPG, TLP, CERT) issue the same query texts
over and over: QPG explains *and* executes every generated query, TLP runs
``SELECT * FROM t`` once per oracle check, and mutation rounds repeat whole
query shapes.  Without caching, every occurrence re-lexes, re-parses, and
re-plans the text from scratch.

:class:`PreparedQueryCache` memoises the two pure stages of the lifecycle:

* **Parsing** — keyed by the normalized statement text alone.  Parsing is
  schema-independent, so a parsed AST never goes stale.  Consumers share the
  cached AST objects and must treat them as frozen (the planner and executor
  only read them).
* **Planning** — keyed by ``(normalized text, statement index, catalog
  version)``.  The catalog version (:attr:`repro.catalog.database.Database.version`)
  advances on every DDL/DML/statistics mutation, so a plan cached against a
  since-mutated database simply misses and is re-planned; stale plans are
  unreachable by construction.  Entries for dead versions age out of the LRU.

The cache is semantically invisible: with ``enabled=False`` every lookup
misses and the dialect behaves exactly as before (asserted by the
cache-on/cache-off campaign-equivalence tests).

Normalization collapses whitespace runs only when the text provably contains
no construct whose meaning depends on whitespace or raw text (string
literals, quoted identifiers, comments, ``-``/``/`` that could open a
comment); anything else is keyed by its stripped raw text.  Two texts that
normalize alike therefore always tokenize alike.
"""

from __future__ import annotations

import re
from typing import Callable, List, Tuple

from repro.core.caching import CacheStats, LRUCache
from repro.optimizer.physical import ATTACHED_KEYS, PhysicalNode, RuntimeStats
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.parser import parse_sql

#: Characters whose presence makes whitespace-collapsing unsafe: quotes keep
#: raw text, ``-`` and ``/`` may open comments (a line comment's terminating
#: newline must not be folded into a space).
_UNSAFE_CHARS = ("'", '"', "`", "-", "/")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Return the cache key for *sql*: whitespace-insensitive where safe."""
    if any(ch in sql for ch in _UNSAFE_CHARS):
        return sql.strip()
    return _WHITESPACE_RUN.sub(" ", sql.strip())


class PreparedQueryCache:
    """LRU caches for parsed statements and version-keyed physical plans.

    One instance belongs to one dialect (and therefore one
    :class:`~repro.catalog.database.Database`); the catalog version in the
    plan key refers to that database.
    """

    def __init__(self, ast_size: int = 512, plan_size: int = 1024, enabled: bool = True) -> None:
        self._asts = LRUCache(maxsize=ast_size)
        self._plans = LRUCache(maxsize=plan_size)
        #: When False, every lookup misses and nothing is stored: the
        #: lifecycle behaves exactly as if the cache did not exist.
        self.enabled = enabled

    # -- parsing -----------------------------------------------------------------

    def parse(self, sql: str) -> Tuple[str, List[ast.Statement]]:
        """Parse *sql* through the cache.

        Returns ``(normalized key, statements)``; the statement list and its
        AST nodes are shared between callers and must not be mutated.
        """
        if not self.enabled:
            return sql, parse_sql(sql)
        key = normalize_sql(sql)
        statements = self._asts.get(key)
        if statements is None:
            statements = parse_sql(sql)
            self._asts.put(key, statements)
        return key, statements

    # -- planning ----------------------------------------------------------------

    def plan(
        self,
        text_key: str,
        index: int,
        version: int,
        planner_callable: Callable[[], PhysicalNode],
    ) -> PhysicalNode:
        """Return the cached plan for statement *index* of *text_key*.

        *version* is the owning database's current catalog version; a miss
        invokes *planner_callable* and stores its plan under that version.
        The returned tree is shared across repeats of the same text: the
        executor treats plans as read-only (runtime statistics excepted —
        see :func:`reset_runtime`), and dialects re-shape them per call.
        """
        if not self.enabled:
            return planner_callable()
        key = (text_key, index, version)
        plan = self._plans.get(key)
        if plan is None:
            plan = planner_callable()
            self._plans.put(key, plan)
        return plan

    # -- introspection -----------------------------------------------------------

    @property
    def ast_stats(self) -> CacheStats:
        """Live hit/miss counters of the parse cache."""
        return self._asts.stats

    @property
    def plan_stats(self) -> CacheStats:
        """Live hit/miss counters of the plan cache."""
        return self._plans.stats

    def clear(self, reset_stats: bool = False) -> None:
        """Drop all cached ASTs and plans."""
        self._asts.clear(reset_stats=reset_stats)
        self._plans.clear(reset_stats=reset_stats)

    def __len__(self) -> int:
        return len(self._asts) + len(self._plans)


def reset_runtime(plan: PhysicalNode) -> PhysicalNode:
    """Zero the runtime statistics of every node in *plan* (in place).

    Cached plans are shared across executions; an ``EXPLAIN ANALYZE`` must
    report the statistics of *its* run, not an accumulation over every run
    the cached tree has seen, so analyzing executions reset first —
    including the attached subquery plans, whose init-plans execute under
    the statement's ANALYZE.  Returns the plan for chaining.
    """
    for node in plan.walk(ATTACHED_KEYS):
        node.runtime = RuntimeStats()
    return plan
