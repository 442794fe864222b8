"""Comparison utilities over unified query plans.

These utilities back two of the paper's applications:

* **QPG** needs to decide whether a query plan is *structurally new*; that
  requires a fingerprint which ignores unstable information such as estimated
  costs, runtime timings, and auto-generated identifiers (Section V-A.1).
* **Benchmarking** (Section V-A.3) compares plans across DBMSs using
  per-category operation counts and, as envisioned in the discussion, tree
  similarity metrics.

Fingerprints are computed Merkle-style — each node's digest folds in its
children's digests — and memoised in the per-node cache introduced in
:mod:`repro.core.model`, so every comparison entry point here short-circuits
on cached digests before falling back to a tree walk.  Plans must be treated
as frozen once fingerprinted (or explicitly invalidated, see
:meth:`repro.core.model.UnifiedPlan.invalidate_fingerprints`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.categories import (
    OPERATION_CATEGORY_ORDER,
    OperationCategory,
    PropertyCategory,
)
from repro.core import model as model_module
from repro.core.model import PlanNode, Property, UnifiedPlan, walk_tree

#: Property categories considered *unstable* for fingerprinting purposes:
#: estimates and runtime metrics change run-to-run without the plan's
#: structure changing.
UNSTABLE_PROPERTY_CATEGORIES = (
    PropertyCategory.CARDINALITY,
    PropertyCategory.COST,
    PropertyCategory.STATUS,
)

#: Identifier suffixes such as ``_5`` in TiDB's ``TableFullScan_5`` are
#: unstable across runs; QPG's original TiDB parser failed to remove them,
#: which is the implementation bug the paper reports finding.
_UNSTABLE_SUFFIX = re.compile(r"[ _#]\d+$")


def strip_unstable_suffix(identifier: str) -> str:
    """Remove trailing auto-generated numeric identifiers from a name."""
    return _UNSTABLE_SUFFIX.sub("", identifier)


def _stable_properties(properties: Sequence[Property]) -> List[Tuple[str, str, str]]:
    stable = []
    for prop in properties:
        if prop.category in UNSTABLE_PROPERTY_CATEGORIES:
            continue
        stable.append((prop.category.value, prop.identifier, str(prop.value)))
    return sorted(stable)


#: Cache keys used for the two structural fingerprint modes (the identity
#: fingerprint lives under ``model.FINGERPRINT_IDENTITY`` in the same cache).
_FP_STRUCTURAL = "structural"
_FP_STRUCTURAL_CONFIG = "structural+config"


def _structural_bytes(node: PlanNode) -> bytes:
    # Cached on the Operation, which converters share between every node
    # of one native name: the suffix regex runs once per operation.
    operation = node.operation
    head = operation._structural_head
    if head is None:
        name = strip_unstable_suffix(operation.identifier)
        head = f"{operation.category.value}\x00{name}".encode("utf-8")
        object.__setattr__(operation, "_structural_head", head)
    return head


def _structural_config_bytes(node: PlanNode) -> bytes:
    # Length-framed: values are arbitrary strings and must not be able to
    # forge component boundaries (see model.frame_lines).
    return _structural_bytes(node) + model_module.frame_lines(
        [
            f"{category}->{identifier}={value}"
            for category, identifier, value in _stable_properties(node.properties)
        ]
    )


def _structural_node_fingerprint(node: PlanNode, include_configuration: bool) -> str:
    """Merkle digest of a subtree's stable structure, memoised on the node
    (QPG calls this once per explained query)."""
    key = _FP_STRUCTURAL_CONFIG if include_configuration else _FP_STRUCTURAL
    cached = node._fp_cache.get(key)
    if cached is not None:
        return cached
    return model_module.merkle_fingerprint(
        node, key, _structural_config_bytes if include_configuration else _structural_bytes
    )


def structural_fingerprint(
    plan: UnifiedPlan, include_configuration: bool = False
) -> str:
    """Return a stable fingerprint of the plan's structure.

    Parameters
    ----------
    plan:
        The unified plan to fingerprint.
    include_configuration:
        When true, Configuration properties (predicates, keys) contribute to
        the fingerprint; Cardinality, Cost and Status properties never do.
        QPG uses ``include_configuration=False`` so that plans differing only
        in constants are considered equivalent.

    The digest is memoised on the plan's nodes, so repeated calls are O(1);
    it depends only on plan content, making it stable across processes.
    """
    if plan.root is None:
        return hashlib.blake2b(b"<no-tree>", digest_size=16).hexdigest()
    return _structural_node_fingerprint(plan.root, include_configuration)


def plans_equal(left: UnifiedPlan, right: UnifiedPlan) -> bool:
    """O(1) content-identity check via cached identity fingerprints.

    Equivalent to comparing canonicalized trees deeply (property order is
    ignored; ``source_dbms``/``query`` are ignored), but runs in constant
    time once both plans are fingerprinted.
    """
    return left.fingerprint() == right.fingerprint()


def structural_signature(plan: UnifiedPlan) -> str:
    """Return the readable (non-hashed) structural form used for debugging."""
    if plan.root is None:
        return "<no-tree>"
    parts = []
    for node, _, _, _, last, exit in walk_tree(plan.root):
        parts.append(("])" if last else "]),") if exit else f"({_node_label(node)}[")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Category histograms (Tables VI and VII)
# ---------------------------------------------------------------------------


def category_histogram(plan: UnifiedPlan) -> Dict[OperationCategory, int]:
    """Count the plan's operations per category."""
    return plan.count_categories()


def average_category_histogram(
    plans: Sequence[UnifiedPlan],
) -> Dict[OperationCategory, float]:
    """Average per-category operation counts over *plans* (Table VI metric)."""
    totals = {category: 0 for category in OPERATION_CATEGORY_ORDER}
    for plan in plans:
        for category, count in plan.count_categories().items():
            totals[category] += count
    denominator = max(len(plans), 1)
    return {category: totals[category] / denominator for category in totals}


def producer_count(plan: UnifiedPlan) -> int:
    """Count Producer operations — the Figure 4 metric."""
    return plan.count_categories()[OperationCategory.PRODUCER]


# ---------------------------------------------------------------------------
# Tree edit distance
# ---------------------------------------------------------------------------


def _node_label(node: PlanNode) -> str:
    return (
        node.operation.category.value
        + "->"
        + strip_unstable_suffix(node.operation.identifier)
    )


def tree_edit_distance(left: Optional[PlanNode], right: Optional[PlanNode]) -> int:
    """The ordered tree edit distance between two plan trees.

    The distance counts node relabelings, insertions, and deletions, each
    costing 1; ``None`` stands for an empty tree.  Structurally identical
    trees are recognised in O(1) via their cached structural fingerprints
    (the edit distance labels nodes exactly as the structural fingerprint
    does).  Otherwise Zhang and Shasha's keyroot dynamic programme runs
    without recursion, in O(n·m) space and O(n·m·min(depth, leaves)²) time
    for trees of n and m nodes: two 1 000-level chains take about a second.
    """
    if left is None and right is None:
        return 0
    if left is None:
        return right.size()
    if right is None:
        return left.size()
    if _subtrees_identical(left, right):
        return 0
    left_labels, left_leftmost, left_keyroots = _postorder(left)
    right_labels, right_leftmost, right_keyroots = _postorder(right)
    # tree[i][j]: distance between the subtrees rooted at post-order i and j.
    tree = [[0] * len(right_labels) for _ in left_labels]
    for i in left_keyroots:
        first_i = left_leftmost[i]
        for j in right_keyroots:
            first_j = right_leftmost[j]
            # forest[x][y]: distance between the forests of post-order
            # nodes first_i .. first_i+x-1 and first_j .. first_j+y-1.
            forest = [list(range(j - first_j + 2))]
            for x in range(1, i - first_i + 2):
                node_i = first_i + x - 1
                label, leftmost, tree_row = left_labels[node_i], left_leftmost[node_i], tree[node_i]
                previous, row = forest[-1], [x]
                for y in range(1, j - first_j + 2):
                    node_j = first_j + y - 1
                    cost = min(previous[y], row[y - 1]) + 1
                    if leftmost == first_i and right_leftmost[node_j] == first_j:
                        cost = min(cost, previous[y - 1] + (label != right_labels[node_j]))
                        tree_row[node_j] = cost
                    else:
                        prior = forest[leftmost - first_i][right_leftmost[node_j] - first_j]
                        cost = min(cost, prior + tree_row[node_j])
                    row.append(cost)
                forest.append(row)
    return tree[-1][-1]


def _subtrees_identical(a: PlanNode, b: PlanNode) -> bool:
    return _structural_node_fingerprint(
        a, include_configuration=False
    ) == _structural_node_fingerprint(b, include_configuration=False)


def _postorder(root: PlanNode) -> Tuple[List[str], List[int], List[int]]:
    """Post-order labels, each node's leftmost leaf, and the keyroots (the
    highest node per leftmost leaf) of the tree under *root*."""
    labels: List[str] = []
    leftmost: List[int] = []
    pending: List[int] = []  # post-order index of each open node's first leaf
    for node, _, _, _, _, exit in walk_tree(root):
        if not exit:
            pending.append(len(labels))
            continue
        labels.append(_node_label(node))
        leftmost.append(pending.pop())
    keyroots = sorted({first: index for index, first in enumerate(leftmost)}.values())
    return labels, leftmost, keyroots


def plan_distance(a: UnifiedPlan, b: UnifiedPlan, *, sort_children: bool = True) -> int:
    """Public, stable tree-edit distance between two unified plans.

    This is the supported entry point for consumers that previously reached
    into :func:`tree_edit_distance` directly (the similarity layer uses it
    to rerank cluster exemplars).  The distance counts node relabelings,
    insertions, and deletions over the plan trees, labelling nodes exactly
    as the structural fingerprint does (category + suffix-stripped unified
    name), so structurally identical plans short-circuit to 0 without a
    tree walk.

    Determinism: with ``sort_children=True`` (the default) both trees are
    first canonicalized with children ordered by fingerprint, so the result
    does not depend on sibling enumeration order; the distance itself is a
    minimum, so it depends on nothing else.  The result is therefore a pure
    function of plan content, stable across processes.  Pass
    ``sort_children=False`` to treat child order as significant (build vs.
    probe side of a join).
    """
    if structural_fingerprint(a) == structural_fingerprint(b):
        return 0
    if sort_children:
        left = None if a.root is None else a.root.canonicalize(sort_children=True)
        right = None if b.root is None else b.root.canonicalize(sort_children=True)
    else:
        left, right = a.root, b.root
    return tree_edit_distance(left, right)


def plan_similarity(left: UnifiedPlan, right: UnifiedPlan) -> float:
    """Return a [0, 1] similarity score based on tree edit distance."""
    distance = tree_edit_distance(left.root, right.root)
    size = max(left.node_count() + right.node_count(), 1)
    return max(0.0, 1.0 - distance / size)


# ---------------------------------------------------------------------------
# Plan diffing
# ---------------------------------------------------------------------------


@dataclass
class PlanDiff:
    """A summary of the differences between two unified plans."""

    only_in_left: List[str] = field(default_factory=list)
    only_in_right: List[str] = field(default_factory=list)
    category_delta: Dict[OperationCategory, int] = field(default_factory=dict)
    edit_distance: int = 0

    @property
    def identical_structure(self) -> bool:
        """Whether both plans have the same operations and tree shape."""
        return self.edit_distance == 0


def diff_plans(left: UnifiedPlan, right: UnifiedPlan) -> PlanDiff:
    """Diff two plans by operation multiset, category counts, and structure.

    Structurally identical plans (per their cached structural fingerprints)
    short-circuit to an all-zero diff without walking either tree.
    """
    if structural_fingerprint(left) == structural_fingerprint(right):
        return PlanDiff(
            category_delta={category: 0 for category in OPERATION_CATEGORY_ORDER},
            edit_distance=0,
        )
    left_ops = sorted(_node_label(node) for node in left.nodes())
    right_ops = sorted(_node_label(node) for node in right.nodes())

    left_multiset: Dict[str, int] = {}
    for name in left_ops:
        left_multiset[name] = left_multiset.get(name, 0) + 1
    right_multiset: Dict[str, int] = {}
    for name in right_ops:
        right_multiset[name] = right_multiset.get(name, 0) + 1

    only_left: List[str] = []
    only_right: List[str] = []
    for name in sorted(set(left_multiset) | set(right_multiset)):
        delta = left_multiset.get(name, 0) - right_multiset.get(name, 0)
        if delta > 0:
            only_left.extend([name] * delta)
        elif delta < 0:
            only_right.extend([name] * (-delta))

    left_categories = left.count_categories()
    right_categories = right.count_categories()
    category_delta = {
        category: left_categories[category] - right_categories[category]
        for category in OPERATION_CATEGORY_ORDER
    }
    return PlanDiff(
        only_in_left=only_left,
        only_in_right=only_right,
        category_delta=category_delta,
        edit_distance=tree_edit_distance(left.root, right.root),
    )
