"""Golden digests: the three fingerprints are persisted, so they are pinned.

"Fingerprint stability … across processes" is a Pipeline-layer invariant
that on-disk ``CoverageStore`` / ``PlanIndex`` directories rely on: a store
written by one commit must reopen under the next with the same keys.  The
digests below were captured at commit 2b82300 (PR 23), *before* PR 24
rewrote how ``PlanNode.fingerprint``, ``UnifiedPlan.fingerprint`` and
``compare._structural_node_fingerprint`` assemble their hash input; any
change to them is a format break of every persisted store.

Two kinds of case:

* hand-built plans (``HAND_BUILT``) depend on nothing but ``repro.core``, so
  a mismatch there is unambiguous — the digest function changed;
* one converted plan per ``(dbms, native format)`` pins the whole door
  (dialect EXPLAIN text → converter → fingerprint).  If only these fail, a
  dialect's output or a converter's mapping changed, not the digest.
"""

import pytest

from repro.core.categories import OperationCategory, PropertyCategory
from repro.core.compare import structural_fingerprint
from repro.core.model import Operation, PlanNode, UnifiedPlan


def digests(plan):
    return (
        plan.fingerprint(),
        structural_fingerprint(plan),
        structural_fingerprint(plan, include_configuration=True),
    )


def _tree_less():
    """InfluxDB-style: plan-associated properties only, no tree."""
    plan = UnifiedPlan(source_dbms="influxdb", query="SELECT v FROM m")
    plan.add_property(PropertyCategory.STATUS, "Shards Queried", 1)
    plan.add_property(PropertyCategory.CARDINALITY, "Series Count", 3)
    plan.add_property(PropertyCategory.CONFIGURATION, "Expression", "v::float")
    return plan


def _marker_bytes():
    """Values holding the framing markers and multi-byte UTF-8."""
    leaf = PlanNode(Operation(OperationCategory.PRODUCER, "Full Table Scan"))
    leaf.add_property(PropertyCategory.CONFIGURATION, "Filter", "a\x01b\x02c\x00d")
    leaf.add_property(PropertyCategory.CONFIGURATION, "name object", "täble_日本語_🙂")
    root = PlanNode(Operation(OperationCategory.EXECUTOR, "Selection"), children=[leaf])
    root.add_property(PropertyCategory.CONFIGURATION, "Filter", "x = '\x01'")
    plan = UnifiedPlan(root=root)
    plan.add_property(PropertyCategory.STATUS, "Planner", "\x02naïve")
    return plan


def _every_value_type():
    """Every value type, every property category, unstable name suffixes."""
    scan = PlanNode(Operation(OperationCategory.PRODUCER, "TableFullScan_5"))
    scan.add_property(PropertyCategory.CARDINALITY, "Estimated Rows", 10000)
    scan.add_property(PropertyCategory.COST, "Total Cost", 12.5)
    scan.add_property(PropertyCategory.CONFIGURATION, "name object", "t0")
    scan.add_property(PropertyCategory.STATUS, "Keep Order", False)
    probe = PlanNode(Operation(OperationCategory.PRODUCER, "Index Scan"))
    probe.add_property(PropertyCategory.CONFIGURATION, "index name", None)
    probe.add_property(PropertyCategory.CONFIGURATION, "Index Condition", "5")
    probe.add_property(PropertyCategory.CARDINALITY, "Estimated Rows", 5)
    probe.add_property(PropertyCategory.CARDINALITY, "Actual Rows", -1)
    join = PlanNode(
        Operation(OperationCategory.JOIN, "Hash Join 12"), children=[scan, probe]
    )
    join.add_property(PropertyCategory.CONFIGURATION, "Join Condition", "t0.c0 = t1.c0")
    join.add_property(PropertyCategory.STATUS, "Parallel Aware", True)
    join.add_property(PropertyCategory.COST, "Startup Cost", 0.0)
    join.add_property(PropertyCategory.COST, "Memory", 1e21)
    plan = UnifiedPlan(root=join)
    plan.add_property(PropertyCategory.STATUS, "Planning Time", 0.125)
    return plan


HAND_BUILT = {
    "tree-less": _tree_less,
    "marker-bytes": _marker_bytes,
    "every-value-type": _every_value_type,
}

#: (identity, structural, structural+config), captured at the parent commit.
GOLDEN_HAND_BUILT = {'every-value-type': ('277ac0dbc5e870a1951c4c64ea454eca',
                      '98247d6e0588a72be12842ee7193a212',
                      '5d5b1339c61b6639153d6105b780f353'),
 'marker-bytes': ('bdd524cd8161fb773a3dca44bfe739af',
                  '7f82e35328735bf285900a4c5e1dfe7e',
                  'c8da73121638ab6af84cfb27863d3a6f'),
 'tree-less': ('665d4e2207d1eca443bc6832bfcd8ebb',
               '07caf764782e8c12dfc788d7e3f80c51',
               '07caf764782e8c12dfc788d7e3f80c51')}
GOLDEN_CONVERTED = {('influxdb', 'text'): ('5791c21c07937d7583653643a5dd5d2d',
                        '07caf764782e8c12dfc788d7e3f80c51',
                        '07caf764782e8c12dfc788d7e3f80c51'),
 ('mongodb', 'json'): ('6e63ec119aabcb9a503ddec3a72c69e0',
                       '3ab489c83298916b64308e6ee9e5a0ae',
                       '44eaa758a98a27c0ba27bffc900be286'),
 ('mysql', 'json'): ('7e127ac0360523022307fdb38c616927',
                     'fd5473079ac901827dd904cdb156f282',
                     'e3757adce76e050c6bd9c349e241c6d4'),
 ('mysql', 'table'): ('8793c7ca908f38d51841d3b844d6528c',
                      '5aad0fd04cce1837c68da78b410aa2bf',
                      'aa86145af87e621c9abd99fd03162d50'),
 ('mysql', 'tree'): ('ad0fb405603b36918cca5c392b1f5bb3',
                     'fd5473079ac901827dd904cdb156f282',
                     'fd5473079ac901827dd904cdb156f282'),
 ('neo4j', 'json'): ('ce1208f274fd4e4a4b34f068dfbfdf3e',
                     '3d4d0ed3fa979ca0ba1a8cd150f2000d',
                     'c246cc269facb4e62d14732dd28ab2c8'),
 ('neo4j', 'text'): ('acd877f5b69f90d76d205cfb905bd382',
                     '3d4d0ed3fa979ca0ba1a8cd150f2000d',
                     'c246cc269facb4e62d14732dd28ab2c8'),
 ('postgresql', 'json'): ('214b6bec68598b25371b02b4a1cb2640',
                          'f8ae73bfed20e06ca0100a47495db226',
                          'c5df51bc6dc4625000631c9f4b5e4463'),
 ('postgresql', 'text'): ('906fdfbfb81185544b01eddeeb429348',
                          'f8ae73bfed20e06ca0100a47495db226',
                          '140a8f06b1be92517a7bf1ca9b4f1a86'),
 ('sparksql', 'text'): ('97f33c7b4b3628b09cb1671e19b71893',
                        'd76d2cba857de130f058db369d0bddae',
                        'cfbaf94188820fd8b530c5cb5b6fe0bd'),
 ('sqlite', 'text'): ('734f775f8bf1127880dd6dd2f6f27c71',
                      'b1fde83538f732ab69c11c3bf59e2fa4',
                      'b39b216e370944aa398e7f9fba29a95f'),
 ('sqlserver', 'table'): ('d4be414d7042b1b5b3e6277a1c9e1d0a',
                          '5a6bd4ad8252866110e7ed2aed6c8336',
                          '6b680e860f97c05ba78c8161daa5c9f7'),
 ('sqlserver', 'text'): ('5ba4600e8e5bde40f96455ebed8befae',
                         '5a6bd4ad8252866110e7ed2aed6c8336',
                         '54c5fb379311d7130c77960d15131335'),
 ('sqlserver', 'xml'): ('7c5f8917139a3fcdea4efd6975c33613',
                        '5a6bd4ad8252866110e7ed2aed6c8336',
                        '08d9f3c7f8f6019311206e20e982b7d9'),
 ('tidb', 'json'): ('4241413a86c07adbf63e2bf7362b71b1',
                    '654d105e59b6350735fd2848eec0ada4',
                    'd07ddc8283b9c9955e37065bf4efe04b'),
 # Re-captured when the ASCII-table reader kept TiDB's id indentation: the
 # table plan had hung third-level operators on the root.  Its structural
 # digests now equal the JSON plan's, as the text plan's always did.
 ('tidb', 'table'): ('7885bef2b18bc2ec5c898feddc80ec7d',
                     '654d105e59b6350735fd2848eec0ada4',
                     'd07ddc8283b9c9955e37065bf4efe04b'),
 ('tidb', 'text'): ('eb88a9738e37587b91fe7ca4d7f5f672',
                    '654d105e59b6350735fd2848eec0ada4',
                    '654d105e59b6350735fd2848eec0ada4')}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_plans_keep_their_digests(name):
    assert digests(HAND_BUILT[name]()) == GOLDEN_HAND_BUILT[name]


def test_property_order_does_not_move_a_golden_digest():
    plan = _every_value_type()
    for node in plan.nodes():
        node.properties.reverse()
    assert digests(plan) == GOLDEN_HAND_BUILT["every-value-type"]


def test_every_native_format_is_pinned(dialect_format_example_plans):
    assert sorted(dialect_format_example_plans) == sorted(GOLDEN_CONVERTED)


def test_converted_plans_keep_their_digests(dialect_format_example_plans):
    assert {
        key: digests(plan) for key, plan in dialect_format_example_plans.items()
    } == GOLDEN_CONVERTED


def test_the_influxdb_example_is_tree_less(dialect_format_example_plans):
    assert dialect_format_example_plans[("influxdb", "text")].root is None
