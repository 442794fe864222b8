"""Plan walks, writers and renderers are iterative, and leave no cycles.

Every tree walk goes through an explicit stack (``walk_tree``, ``fold_tree``
or ``PlanNode.walk``), so a unified plan of any depth walks, renders,
copies, canonicalizes, validates, and serializes to and from dicts and
the text, grammar, XML and YAML formats without ``RecursionError``.  JSON
is the one bounded format: the stdlib reader stops at about 1 000 nested
containers (about 490 plan levels), so past that both directions raise a
``FormatError``.  No function of the unified formats, comparison or
validation calls itself, directly or through another function, and no
nested function in ``src/repro`` calls itself: each such closure
referenced itself through its cell, a reference cycle per call that only
the cyclic collector could free.
"""

import ast
import gc
import pathlib

import pytest

from repro.core import formats
from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.compare import structural_signature
from repro.core.model import Operation, PlanNode, Property, UnifiedPlan, walk_tree
from repro.core.validate import validate_plan
from repro.errors import FormatError
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


#: The modules that read, write, compare and validate whole unified plans.
ITERATIVE_MODULES = ["core/formats", "core/grammar.py", "core/compare.py", "core/validate.py"]

#: Functions allowed to recurse, with the reason.
ALLOWED_RECURSION = {
    # MySQL's EXPLAIN JSON writer on the campaign hot path, bounded like
    # the stdlib reader: json_format turns its RecursionError into a
    # FormatError.
    "core/formats/json_emit.py:_write",
}


def _call_graph():
    """``"<file>:<function>" -> {callees}`` over :data:`ITERATIVE_MODULES`:
    calls by bare name to a function of the same file, ``self.`` / ``cls.``
    calls to a method of the same class, and ``module.function`` calls to a
    module of the scope imported by name."""
    paths = sorted(
        path for entry in ITERATIVE_MODULES
        for path in ((SRC / entry).rglob("*.py") if (SRC / entry).is_dir() else [SRC / entry])
    )
    modules = {path.stem: str(path.relative_to(SRC)) for path in paths}
    graph = {}
    for path in paths:
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            alias.asname or alias.name: modules[alias.name]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in modules
        }
        scopes = [(None, node) for node in tree.body]
        scopes += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                   for item in node.body]
        functions = {
            (owner, node.name): node for owner, node in scopes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for (owner, function_name), function in functions.items():
            callees = set()
            for call in ast.walk(function):
                if not isinstance(call, ast.Call):
                    continue
                target = call.func
                if isinstance(target, ast.Name) and (None, target.id) in functions:
                    callees.add(f"{name}:{target.id}")
                elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    base = target.value.id
                    if base in ("self", "cls") and (owner, target.attr) in functions:
                        callees.add(f"{name}:{owner}.{target.attr}")
                    elif base in aliases:
                        callees.add(f"{aliases[base]}:{target.attr}")
            qualified = function_name if owner is None else f"{owner}.{function_name}"
            graph[f"{name}:{qualified}"] = callees
    return graph


def _recursive_functions(graph):
    found = []
    for start in sorted(graph):
        seen, stack = set(), list(graph[start])
        while stack:
            current = stack.pop()
            if current == start:
                found.append(start)
                break
            if current not in seen:
                seen.add(current)
                stack.extend(graph.get(current, ()))
    return found


def test_no_plan_format_function_recurses():
    graph = _call_graph()
    assert "core/grammar.py:_Parser._parse_tree" in graph
    assert "core/formats/codec.py:write_value" in graph["core/grammar.py:_serialize_properties"]
    assert _recursive_functions(graph) == sorted(ALLOWED_RECURSION)


def test_the_recursion_scan_sees_indirect_recursion():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}, "e": {"e"}}
    assert _recursive_functions(graph) == ["a", "b", "c", "e"]


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
    "structural_signature": lambda plan: structural_signature(plan).count("("),
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


#: Levels each parseable format round-trips.  YAML indents two spaces per
#: nesting and nests twice per plan level, so a 5 000-level document would
#: run to 300 MB; 1 000 levels is past the interpreter's recursion limit.
ROUND_TRIP_LEVELS = {"text": DEPTH, "grammar": DEPTH, "xml": DEPTH, "yaml": 1000, "json": 400}


def _with_properties(plan):
    plan.root.properties.append(Property(PropertyCategory.CONFIGURATION, "Filter", 'a\n"b"'))
    plan.properties.append(Property(PropertyCategory.STATUS, "Planning Time", float("inf")))
    return plan


@pytest.mark.parametrize("format_name", sorted(ROUND_TRIP_LEVELS))
def test_deep_plans_round_trip(format_name, deep_plan):
    levels = ROUND_TRIP_LEVELS[format_name]
    plan = _with_properties(deep_plan.copy() if levels == DEPTH else _deep_plan(levels))
    restored = formats.deserialize(formats.serialize(plan, format_name), format_name)
    assert restored.root.depth() == levels
    assert restored.fingerprint() == plan.fingerprint()


def test_json_past_the_stdlib_bound_is_a_format_error(deep_plan):
    with pytest.raises(FormatError):
        formats.serialize(deep_plan, "json")
    node = '{"operation": {"category": "Executor", "identifier": "Selection"}, "children": ['
    document = '{"tree": ' + node * DEPTH + "]}" * DEPTH + "}"
    with pytest.raises(FormatError):
        formats.deserialize(document, "json")


def test_deep_plans_validate_with_paths(deep_plan):
    assert validate_plan(deep_plan) == []
    plan = deep_plan.copy()
    leaf = list(plan.root.walk())[-1]
    shared = PlanNode(Operation(OperationCategory.PRODUCER, "Index Scan"))
    leaf.children.extend([shared, shared])
    assert validate_plan(plan, raise_on_error=False) == [
        "plan.tree" + ".children[0]" * (DEPTH - 1) + ".children[1]: node appears more than once"
        " in the tree (not a tree)"
    ]


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
