"""The keyroot tree edit distance equals the recursive one it replaced.

``compare.tree_edit_distance`` runs Zhang and Shasha's keyroot programme
without recursion.  The recursive forest distance it replaced is kept here,
verbatim but for its names, as the reference: both must agree on generated
tree pairs and on a campaign's trigger plans, and the new one must handle
chains the reference cannot reach.
"""

import random
import time

import pytest

from repro.core import compare
from repro.core.categories import OperationCategory
from repro.core.model import Operation, PlanNode, UnifiedPlan
from repro.testing import TestingCampaign


def reference_distance(left, right):
    """The recursive distance, as ``tree_edit_distance`` computed it before."""
    if left is None and right is None:
        return 0
    if left is None:
        return right.size()
    if right is None:
        return left.size()
    if compare._subtrees_identical(left, right):
        return 0
    return _forest_distance((left,), (right,), {})


def _forest_distance(left_forest, right_forest, memo):
    key = (
        tuple(id(node) for node in left_forest),
        tuple(id(node) for node in right_forest),
    )
    if key in memo:
        return memo[key]
    if not left_forest and not right_forest:
        result = 0
    elif not left_forest:
        result = sum(node.size() for node in right_forest)
    elif not right_forest:
        result = sum(node.size() for node in left_forest)
    else:
        first_left, *rest_left = left_forest
        first_right, *rest_right = right_forest
        if compare._subtrees_identical(first_left, first_right):
            match_cost = _forest_distance(tuple(rest_left), tuple(rest_right), memo)
        else:
            relabel = 0 if compare._node_label(first_left) == compare._node_label(first_right) else 1
            match_cost = (
                relabel
                + _forest_distance(tuple(first_left.children), tuple(first_right.children), memo)
                + _forest_distance(tuple(rest_left), tuple(rest_right), memo)
            )
        delete_cost = 1 + _forest_distance(
            tuple(first_left.children) + tuple(rest_left), right_forest, memo
        )
        insert_cost = 1 + _forest_distance(
            left_forest, tuple(first_right.children) + tuple(rest_right), memo
        )
        result = min(match_cost, delete_cost, insert_cost)
    memo[key] = result
    return result


_CATEGORIES = [OperationCategory.PRODUCER, OperationCategory.JOIN, OperationCategory.EXECUTOR]


def _random_tree(rng, size):
    """A tree of *size* nodes over a small label alphabet (so labels collide
    and identical subtrees occur), each node under a random earlier one."""
    nodes = []
    for _ in range(size):
        # "Scan_3" and "Scan_7" share a label: the suffix is unstable.
        node = PlanNode(Operation(rng.choice(_CATEGORIES), rng.choice(["Scan", "Scan_3", "Scan_7", "Sort"])))
        if nodes:
            rng.choice(nodes).children.append(node)
        nodes.append(node)
    return nodes[0]


def _chain(levels, leaf):
    node = PlanNode(Operation(OperationCategory.PRODUCER, leaf))
    for _ in range(levels - 1):
        node = PlanNode(Operation(OperationCategory.EXECUTOR, "Selection"), children=[node])
    return node


@pytest.mark.parametrize("seed", range(4))
def test_equals_the_reference_on_generated_pairs(seed):
    rng = random.Random(seed)
    for _ in range(100):
        left = _random_tree(rng, rng.randint(1, 14))
        right = _random_tree(rng, rng.randint(1, 14))
        assert compare.tree_edit_distance(left, right) == reference_distance(left, right)


def test_empty_trees_cost_their_size():
    tree = _random_tree(random.Random(9), 6)
    assert compare.tree_edit_distance(None, None) == reference_distance(None, None) == 0
    assert compare.tree_edit_distance(tree, None) == compare.tree_edit_distance(None, tree) == 6


def test_equals_the_reference_on_campaign_trigger_plans():
    result = TestingCampaign(queries_per_dbms=25, cert_pairs_per_dbms=10, bound_checks_per_dbms=5).run()
    plans = [UnifiedPlan.from_dict(report.trigger_plan) for report in result.reports]
    assert len(plans) >= 10
    for left in plans:
        for right in plans:
            for sort_children in (False, True):
                a, b = left.root, right.root
                if sort_children:
                    a, b = a.canonicalize(sort_children=True), b.canonicalize(sort_children=True)
                expected = reference_distance(a, b)
                assert compare.tree_edit_distance(a, b) == expected
                assert compare.plan_distance(left, right, sort_children=sort_children) == expected


def test_thousand_level_chains_differing_at_the_leaf():
    left, right = _chain(1000, "Full Table Scan"), _chain(1000, "Index Scan")
    started = time.process_time()
    assert compare.tree_edit_distance(left, right) == 1
    assert time.process_time() - started < 2.0
    assert compare.tree_edit_distance(left, _chain(998, "Index Scan")) == 3
