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
  only read them).  The tables each statement names are noted by the
  parser as it meets them and kept beside the AST.
* **Planning** — keyed by ``(normalized text, statement index, freshness)``,
  where the freshness of a statement is
  :meth:`repro.catalog.database.Database.plan_freshness` of the tables it
  names: the catalog epoch (DDL, whole-database ``analyze``) and each named
  table's planning version (DML, ``analyze(table)``).  That is everything a
  plan may depend on — schema, indexes, statistics, and the actual row
  counts behind the proven size bounds — so a write to one table re-plans
  only the statements that name it, and a plan cached against since-changed
  inputs simply misses; stale plans are unreachable by construction and are
  never explicitly invalidated.  Entries for dead keys age out of the LRU.

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
from typing import Callable, Hashable, List, Optional, Tuple

from repro.core.caching import CacheStats, LRUCache
from repro.optimizer.physical import ATTACHED_KEYS, PhysicalNode, RuntimeStats
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.parser import parse_script, parse_sql

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


class ParsedScript(list):
    """The statements of one cached text, and the tables each of them names."""

    __slots__ = ("tables",)

    def __init__(self, statements: List[ast.Statement], tables: List[Tuple[str, ...]]) -> None:
        super().__init__(statements)
        #: Per statement, as :func:`repro.sqlparser.parser.parse_script` reports.
        self.tables = tables


class PreparedQueryCache:
    """LRU caches for parsed statements and freshness-keyed physical plans.

    One instance belongs to one dialect (and therefore one
    :class:`~repro.catalog.database.Database`); the freshness in the plan
    key refers to that database.
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
            statements = ParsedScript(*parse_script(sql))
            self._asts.put(key, statements)
        return key, statements

    # -- planning ----------------------------------------------------------------

    def freshness(self, statements: List[ast.Statement], index: int, database) -> Optional[Hashable]:
        """The freshness key of statement *index* of a :meth:`parse` result.

        *database*'s catalog epoch plus the planning versions of the tables
        the statement names.  A disabled cache keys nothing and so never
        looks at the statement.
        """
        if not self.enabled:
            return None
        return database.plan_freshness(statements.tables[index])

    def plan(
        self,
        text_key: str,
        index: int,
        freshness: Hashable,
        planner_callable: Callable[[], PhysicalNode],
    ) -> PhysicalNode:
        """Return the cached plan for statement *index* of *text_key*.

        *freshness* (see :meth:`freshness`) stands for every planning input
        that can change under the statement; a miss invokes
        *planner_callable* and stores its plan under that value.
        The returned tree is shared across repeats of the same text: the
        executor treats plans as read-only (runtime statistics excepted —
        see :func:`reset_runtime`), and dialects re-shape them per call.
        """
        if not self.enabled:
            return planner_callable()
        key = (text_key, index, freshness)
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
