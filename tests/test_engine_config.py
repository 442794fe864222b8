"""One engine configuration from campaign to planner.

A relational dialect's settings are the fields of one frozen
:class:`~repro.dialects.base.EngineConfig`.  This file pins:

* the campaign matrix — serial campaigns over a pairwise cover of the
  3 x 2 x 2 x 2 setting space, where every axis declares which observables
  it leaves unchanged and every pair of cells must agree on the observables
  invariant under all the axes they differ in;
* validation at every door a setting enters by — ``create_dialect``,
  ``TestingCampaign``, ``ShardedCampaign`` and the service's ``open`` op —
  so a bad key or value fails at construction and names itself;
* :meth:`~repro.dialects.base.RelationalDialect.reconfigure`, the one place
  a live dialect applies a change (and drops its cached plans).
"""

import itertools
import pickle
from dataclasses import asdict, fields

import pytest

from repro.dialects import EngineConfig, create_dialect
from repro.engine import Executor, VectorizedExecutor
from repro.errors import ReproError
from repro.parallel import ShardedCampaign
from repro.service import QueryService, ServiceClient
from repro.testing.campaign import TestingCampaign

#: The campaign every cell runs: two DBMSs, enough queries and CERT pairs
#: that each round reports bugs and decorrelation shows in coverage.
CORPUS = dict(
    dbms_names=["postgresql", "mysql"],
    seed=1,
    queries_per_dbms=30,
    cert_pairs_per_dbms=8,
)

#: How each observable is read off a campaign result.
OBSERVABLES = {
    "plan_fingerprints": lambda result: result.plan_fingerprints,
    "unique_plans": lambda result: result.unique_plans,
    "table5": lambda result: result.table5_rows(),
    "trigger_queries": lambda result: [report.trigger_query for report in result.reports],
    "queries_generated": lambda result: result.queries_generated,
    "cert_pairs_checked": lambda result: result.cert_pairs_checked,
}

_TABLE5_AND_COUNTS = {"table5", "queries_generated", "cert_pairs_checked"}

#: The observables each setting leaves unchanged.  The executor and the
#: prepared cache are invisible everywhere; the planner switches change
#: plans, hence coverage, but never results, hence Table V.
INVARIANT_UNDER = {
    "executor": set(OBSERVABLES),
    "prepared_cache": set(OBSERVABLES),
    "decorrelate": _TABLE5_AND_COUNTS,
    "optimize_joins": _TABLE5_AND_COUNTS,
}

#: A pairwise cover of executor x prepared_cache x decorrelate x
#: optimize_joins, two cells per planner-switch setting, the two differing
#: in executor and cache — so every switch setting also checks coverage
#: across executors and caches.  The first cell is the default.
CELLS = [
    EngineConfig(executor=executor, prepared_cache=cache, decorrelate=dec, optimize_joins=joins)
    for executor, cache, dec, joins in [
        ("vectorized", True, True, True),
        ("row", False, True, True),
        ("row", True, False, True),
        ("parallel", False, False, True),
        ("parallel", True, True, False),
        ("row", False, True, False),
        ("vectorized", False, False, False),
        ("parallel", True, False, False),
    ]
]


def _cell_id(config):
    off = [name for name in ("prepared_cache", "decorrelate", "optimize_joins")
           if not getattr(config, name)]
    return "-".join([config.executor] + [f"no_{name}" for name in off])


def _changed(cell, other):
    return [field.name for field in fields(EngineConfig)
            if getattr(cell, field.name) != getattr(other, field.name)]


@pytest.fixture(scope="module")
def campaign():
    """``campaign(config)``: the corpus campaign's result, run once per cell."""
    results = {}

    def run(config):
        if config not in results:
            results[config] = TestingCampaign(**CORPUS, **asdict(config)).run()
        return results[config]

    return run


class TestCampaignMatrix:
    def test_every_setting_declares_its_invariants(self):
        assert set(INVARIANT_UNDER) == {field.name for field in fields(EngineConfig)}
        assert CELLS[0] == EngineConfig()

    def test_cells_cover_every_pair_of_values(self):
        domains = {
            "executor": ("row", "vectorized", "parallel"),
            "prepared_cache": (True, False),
            "decorrelate": (True, False),
            "optimize_joins": (True, False),
        }
        for first, second in itertools.combinations(domains, 2):
            covered = {(getattr(cell, first), getattr(cell, second)) for cell in CELLS}
            assert covered == set(itertools.product(domains[first], domains[second]))

    @pytest.mark.parametrize("cell", CELLS[1:], ids=_cell_id)
    def test_cell_agrees_with_every_earlier_cell(self, campaign, cell):
        result = campaign(cell)
        for other in CELLS[: CELLS.index(cell)]:
            changed = _changed(cell, other)
            unchanged = set(OBSERVABLES).intersection(
                *(INVARIANT_UNDER[name] for name in changed)
            )
            for name in sorted(unchanged):
                observe = OBSERVABLES[name]
                assert observe(result) == observe(campaign(other)), (
                    f"{name} differs from {_cell_id(other)} (changed: {changed})"
                )

    def test_turning_decorrelation_off_changes_coverage(self, campaign):
        pairs = [
            (on, off)
            for on, off in itertools.product(CELLS, CELLS)
            if on.decorrelate and not off.decorrelate and on.optimize_joins == off.optimize_joins
        ]
        assert pairs
        for on, off in pairs:
            assert campaign(on).plan_fingerprints != campaign(off).plan_fingerprints


class TestValidationAtTheDoor:
    """Each bad setting fails where it enters, and names itself."""

    @staticmethod
    def _open(options):
        with QueryService() as service, ServiceClient(service.address) as client:
            client.open_session("postgresql", options=options)

    @pytest.mark.parametrize(
        "enter, named",
        [
            (lambda: TestValidationAtTheDoor._open({"decorrelat": False}), "decorrelat"),
            (lambda: TestValidationAtTheDoor._open({"prepared_cache": "no"}), "prepared_cache"),
            (lambda: TestingCampaign(executor="bogus"), "bogus"),
            (lambda: ShardedCampaign(novelty="bogus"), "bogus"),
            (lambda: ShardedCampaign(max_rounds=2), "max_rounds"),
        ],
        ids=["open-unknown-key", "open-non-bool", "campaign-executor",
             "sharded-novelty", "sharded-max-rounds-in-memory"],
    )
    def test_bad_setting_fails_at_its_door(self, enter, named):
        with pytest.raises((ValueError, TypeError, ReproError), match=named):
            enter()

    def test_engine_config_rejects_each_kind_of_bad_input(self):
        with pytest.raises(ValueError, match="unknown executor 'bogus'"):
            EngineConfig(executor="bogus")
        with pytest.raises(TypeError, match="decorrelate must be a bool"):
            EngineConfig(decorrelate=1)
        with pytest.raises(TypeError, match="optimise_joins"):
            EngineConfig(optimise_joins=False)
        with pytest.raises(TypeError, match="optimise_joins"):
            create_dialect("postgresql", optimise_joins=False)

    def test_config_pickles_and_stays_frozen(self):
        config = EngineConfig(executor="row", prepared_cache=False)
        assert pickle.loads(pickle.dumps(config)) == config
        with pytest.raises(AttributeError):
            config.executor = "vectorized"


class TestReconfigure:
    def test_construction_carries_the_config_to_the_planner(self):
        dialect = create_dialect("tidb", executor="row", decorrelate=False)
        assert dialect.config == EngineConfig(executor="row", decorrelate=False)
        assert type(dialect.executor) is Executor
        assert not dialect.planner.options.decorrelate
        assert dialect.planner.options.optimize_joins
        # The dialect's own planner options survive the switches.
        assert dialect.planner.options.index_selectivity_threshold == 0.45

    def test_each_setting_is_applied_in_one_place(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a INT)")
        dialect.execute("SELECT a FROM t")
        cached = len(dialect.prepared)
        assert cached > 0

        dialect.reconfigure(executor="row", prepared_cache=True)
        assert type(dialect.executor) is Executor
        assert len(dialect.prepared) == cached  # no planner switch: plans stay

        dialect.reconfigure(prepared_cache=False)
        assert not dialect.prepared.enabled
        dialect.reconfigure(prepared_cache=True)
        assert dialect.prepared.enabled

        dialect.reconfigure(optimize_joins=False)
        assert not dialect.planner.options.optimize_joins
        assert len(dialect.prepared) == 0
        assert dialect.config == EngineConfig(executor="row", optimize_joins=False)

    def test_bad_change_leaves_the_dialect_untouched(self):
        dialect = create_dialect("postgresql")
        executor = dialect.executor
        with pytest.raises(ValueError):
            dialect.reconfigure(executor="bogus")
        with pytest.raises(TypeError):
            dialect.reconfigure(decorrelat=False)
        assert dialect.config == EngineConfig()
        assert dialect.executor is executor
        assert type(executor) is VectorizedExecutor
