"""Plan walks, writers and renderers are iterative, and leave no cycles.

Every tree walk goes through an explicit stack (``walk_tree``, ``fold_tree``
or ``PlanNode.walk``), so a unified plan of any depth walks, renders,
copies, canonicalizes, and serializes to and from dicts without
``RecursionError``.  No nested function in ``src/repro``
calls itself: each such closure referenced itself through its cell, a
reference cycle per call that only the cyclic collector could free.
"""

import ast
import gc
import pathlib

import pytest

from repro.core import formats
from repro.core.categories import OperationCategory
from repro.core.model import Operation, PlanNode, UnifiedPlan, walk_tree
from repro.testing.campaign import TestingCampaign
from repro.visualize.renderers import render_ascii, render_dot, render_html

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

DEPTH = 5000


def _self_calling_nested_functions():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == inner.name
                    for call in ast.walk(inner)
                ):
                    found.append(f"{path.relative_to(SRC)}:{inner.lineno} {outer.name}.{inner.name}")
    return found


def test_no_nested_function_calls_itself():
    assert _self_calling_nested_functions() == []


def test_a_campaign_round_leaves_no_cyclic_garbage():
    config = dict(
        dbms_names=["mysql"], seed=1, queries_per_dbms=15, cert_pairs_per_dbms=6,
        bound_checks_per_dbms=2,
    )
    TestingCampaign(**config).run()  # first-use caches fill outside the window
    gc.collect()
    gc.disable()
    try:
        result = TestingCampaign(**config).run()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert result.rounds_completed == 1
    assert garbage == 0


def _deep_plan(levels):
    node = PlanNode(Operation(OperationCategory.PRODUCER, "Full Table Scan"))
    for _ in range(levels - 1):
        node = PlanNode(Operation(OperationCategory.EXECUTOR, "Selection"), children=[node])
    return UnifiedPlan(root=node)


@pytest.fixture(scope="module")
def deep_plan():
    return _deep_plan(DEPTH)


DEEP_CALLS = {
    "walk": lambda plan: len(list(plan.root.walk())),
    "walk_postorder": lambda plan: len(list(plan.root.walk_postorder())),
    "size": lambda plan: plan.root.size(),
    "depth": lambda plan: plan.root.depth(),
    "find": lambda plan: len(plan.root.find(lambda node: True)),
    "count_categories": lambda plan: sum(plan.root.count_categories().values()),
    "render_ascii": lambda plan: render_ascii(plan).count("\n"),
    "render_dot": lambda plan: render_dot(plan).count(" -> "),
    "render_html": lambda plan: render_html(plan).count("<div class='node'"),
    "text": lambda plan: formats.serialize(plan, "text").count("\n") + 1,
    "table": lambda plan: formats.serialize(plan, "table").count("\n") - 3,
    "copy": lambda plan: plan.copy().root.size(),
    "to_dict": lambda plan: _payload_depth(plan.to_dict()["tree"]),
    "from_dict": lambda plan: UnifiedPlan.from_dict(plan.to_dict()).root.size(),
    "canonicalize": lambda plan: plan.canonicalize(sort_children=True).root.size(),
}


def _payload_depth(payload):
    depth = 0
    while payload is not None:
        depth += 1
        payload = payload["children"][0] if payload["children"] else None
    return depth


@pytest.mark.parametrize("name", sorted(DEEP_CALLS))
def test_deep_plans_walk_and_render(name, deep_plan):
    expected = DEPTH - 1 if name == "render_dot" else DEPTH
    assert DEEP_CALLS[name](deep_plan) == expected


def test_deep_copies_keep_fingerprints_and_their_caches(deep_plan):
    fingerprint = deep_plan.fingerprint()
    copied = deep_plan.copy()
    assert all(
        copy._fp_cache == node._fp_cache and copy is not node
        for copy, node in zip(copied.root.walk(), deep_plan.root.walk())
    )
    assert copied.fingerprint() == fingerprint
    assert UnifiedPlan.from_dict(deep_plan.to_dict()).fingerprint() == fingerprint
    assert deep_plan.canonicalize().fingerprint() == fingerprint


def test_walk_tree_events():
    leaf_a = PlanNode(Operation(OperationCategory.PRODUCER, "A"))
    leaf_b = PlanNode(Operation(OperationCategory.PRODUCER, "B"))
    join = PlanNode(Operation(OperationCategory.JOIN, "J"), children=[leaf_a, leaf_b])
    root = PlanNode(Operation(OperationCategory.EXECUTOR, "R"), children=[join])
    steps = [
        (node.operation.identifier, depth, node_id, parent_id, last, exit)
        for node, depth, node_id, parent_id, last, exit in walk_tree(root)
    ]
    assert steps == [
        ("R", 0, 1, None, True, False),
        ("J", 1, 2, 1, True, False),
        ("A", 2, 3, 2, False, False),
        ("A", 2, 3, 2, False, True),
        ("B", 2, 4, 2, True, False),
        ("B", 2, 4, 2, True, True),
        ("J", 1, 2, 1, True, True),
        ("R", 0, 1, None, True, True),
    ]
