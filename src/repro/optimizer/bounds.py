"""Static intermediate-relation size bounds from key constraints.

Following Chen & Schneider's bounds for select-project-join-union plans
(arXiv 2412.13104), every plan node can carry a *proven* upper bound on the
number of rows it may produce, derived only from catalog facts — actual base
-table row counts and enforced unique-key constraints — never from sampled
statistics.  The planner threads the bound through the tree in
``info["size_bound"]``:

* a base-table scan is bounded by the table's actual row count (filters only
  shrink it),
* a join of bounded inputs is bounded by :func:`join_bound` — the product,
  reduced to one side when the other side's equated join columns cover one
  of its unique keys, plus null-padding terms for outer joins,
* every upper operator propagates via :func:`propagated_bound`.

Because the bound is proven, it does double duty:

* **planning** — the memo's cardinality estimates are capped at the bound
  (an estimate above a proven maximum is certainly wrong), which both
  tightens cost comparisons and prunes enumeration branches built on
  impossible intermediate sizes;
* **testing** — after an ``EXPLAIN ANALYZE`` execution,
  :func:`bound_violations` flags any node whose *actual* row count exceeded
  its proven bound.  A correct engine can never trip this, so a violation is
  a campaign bug report (``found_by="Bound"``), and the oracle stays silent
  across every toggle combination.

Nodes executed more than once (the rescanned inner of a nested loop)
accumulate ambiguous actual-row counters, so the runtime check only judges
nodes with ``loops <= 1``.  That includes the nodes of an init-plan — an
uncorrelated predicate subquery, which runs at most once per statement;
per-row subplans run outside ANALYZE and are never judged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.optimizer.physical import ATTACHED_KEYS, OpKind, PhysicalNode

#: Join types whose output is exactly the set of matching row pairs.
_INNER_TYPES = {"INNER", "CROSS", ""}


def join_bound(
    left_bound: float,
    right_bound: float,
    join_type: str = "INNER",
    left_unique: bool = False,
    right_unique: bool = False,
) -> float:
    """Proven output-size bound for a join of two bounded inputs.

    ``right_unique`` asserts that the join's equality columns on the right
    side cover a unique key of the right input, so every left row matches at
    most one right row (and symmetrically for ``left_unique``).  Outer joins
    add their null-padding terms: a LEFT join emits at most one padded row
    per unmatched left row, a FULL join pads both sides.
    """
    matches = left_bound * right_bound
    if right_unique:
        matches = min(matches, left_bound)
    if left_unique:
        matches = min(matches, right_bound)
    join_type = (join_type or "INNER").upper()
    if join_type in _INNER_TYPES:
        return matches
    if join_type == "LEFT":
        bound = matches + left_bound
        return min(bound, left_bound) if right_unique else bound
    if join_type == "RIGHT":
        bound = matches + right_bound
        return min(bound, right_bound) if left_unique else bound
    if join_type == "FULL":
        bound = matches + left_bound + right_bound
        if left_unique or right_unique:
            bound = min(bound, left_bound + right_bound)
        return bound
    # Unknown join type: make no claim.
    return float("inf")


def propagated_bound(
    kind: OpKind,
    child_bounds: List[Optional[float]],
    limit: Optional[float] = None,
) -> Optional[float]:
    """Bound of an upper (non-join, non-scan) operator from its children.

    Returns ``None`` when no sound claim can be made — a missing child bound
    poisons everything except operators that bound their output on their
    own (``RESULT``) or only need one side (``EXCEPT``, ``LIMIT`` with a
    literal count).
    """
    first = child_bounds[0] if child_bounds else None
    if kind is OpKind.RESULT:
        return 1.0
    if kind in (OpKind.LIMIT, OpKind.TOP_N) and limit is not None:
        if first is None:
            return limit
        return min(first, limit)
    if first is None:
        return None
    if kind in (
        OpKind.FILTER,
        OpKind.PROJECT,
        OpKind.DISTINCT,
        OpKind.SORT,
        OpKind.MATERIALIZE,
        OpKind.GATHER,
        OpKind.WINDOW,
        OpKind.SUBQUERY_SCAN,
        OpKind.LIMIT,
        OpKind.TOP_N,
        OpKind.SEMI_JOIN,
        OpKind.ANTI_JOIN,
    ):
        # Each of these emits at most its (outer) child's rows.  Semi/anti
        # joins bound on the outer child, which is child_bounds[0].
        return first
    if kind in (OpKind.HASH_AGGREGATE, OpKind.SORT_AGGREGATE):
        # Grouped output has at most one row per input row; a *global*
        # aggregate over zero rows still emits its single summary row.
        return max(first, 1.0)
    rest = child_bounds[1:]
    if any(bound is None for bound in rest):
        if kind is OpKind.EXCEPT:
            return first  # EXCEPT never exceeds its left input.
        return None
    if kind in (OpKind.APPEND, OpKind.UNION):
        return first + sum(rest)  # type: ignore[arg-type]
    if kind is OpKind.INTERSECT:
        return min([first] + rest)  # type: ignore[type-var]
    if kind is OpKind.EXCEPT:
        return first
    return None


def bound_violations(plan: PhysicalNode) -> List[Dict[str, object]]:
    """Nodes whose executed row count exceeded their proven size bound.

    Judges only nodes that actually executed exactly once (``loops <= 1``);
    rescanned nodes accumulate counters across loops, which says nothing
    about a single evaluation.  The returned entries are plain dictionaries
    so callers (EXPLAIN output, the campaign oracle) can serialize them.
    """
    violations: List[Dict[str, object]] = []
    for node in plan.walk(ATTACHED_KEYS):
        bound = node.info.get("size_bound")
        if bound is None:
            continue
        runtime = node.runtime
        if not runtime.executed or runtime.loops > 1:
            continue
        if runtime.actual_rows > bound:
            violations.append(
                {
                    "operator": node.kind.value,
                    "size_bound": float(bound),
                    "actual_rows": int(runtime.actual_rows),
                }
            )
    return violations
