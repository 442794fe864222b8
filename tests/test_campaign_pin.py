"""Golden digests of whole campaign results.

A campaign's result is deterministic: Table V, every trigger query and
trigger plan, coverage, every counter, the per-round payloads and the
similarity index depend only on the configuration.  Each digest below hashes
all of it for one configuration — fresh serial rounds, similarity novelty,
sharded folds in both novelty modes, and a stopped-then-resumed durable
campaign — so any change to how rounds run or fold, however small, shows.
The digests do not depend on the numpy kernels.
"""

import hashlib
import json

import pytest

from repro.parallel import ShardedCampaign
from repro.testing.campaign import TestingCampaign

SIMILARITY_SIZES = dict(queries_per_dbms=40, cert_pairs_per_dbms=15, bound_checks_per_dbms=6)


def result_digest(result):
    """SHA-256 over everything a campaign result reports."""
    record = {
        "table5": result.table5_rows(),
        "triggers": [[report.trigger_query, report.trigger_plan] for report in result.reports],
        "fingerprints": sorted(result.plan_fingerprints),
        "unique_plans": result.unique_plans,
        "counters": [
            result.queries_generated,
            result.cert_pairs_checked,
            result.bound_queries_checked,
            result.unexpected_errors,
            result.conversions,
            result.conversion_cache_hits,
        ],
        "rounds": [result.rounds_completed, result.rounds_skipped],
        "round_payloads": result.round_payloads,
        "novelty_reward_total": result.novelty_reward_total,
        "index_payload": result.index_payload,
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resumed(tmp_path):
    TestingCampaign(persist_to=str(tmp_path), max_rounds=1).run()
    return TestingCampaign(persist_to=str(tmp_path)).run()


CONFIGURATIONS = {
    "serial": lambda tmp_path: TestingCampaign(seed=1).run(),
    "similarity": lambda tmp_path: TestingCampaign(
        seed=3, novelty="similarity", **SIMILARITY_SIZES
    ).run(),
    "sharded-exact": lambda tmp_path: ShardedCampaign(shards=2, parallel=False, seed=1).run(),
    "sharded-similarity": lambda tmp_path: ShardedCampaign(
        shards=2, parallel=False, seed=2, novelty="similarity", **SIMILARITY_SIZES
    ).run(),
    "resumed": _resumed,
}

GOLDEN = {
    "resumed": "b043fddd7a1165fc518e559aaf9cc92584f878b79121ac90393e25d5f17936dc",
    "serial": "ba870ab8daedcc0e19a8348283e30c408d5333b1d26f6a1f0f11fc6758550cb5",
    "sharded-exact": "ba870ab8daedcc0e19a8348283e30c408d5333b1d26f6a1f0f11fc6758550cb5",
    "sharded-similarity": "b490570b463941208eba2930c463d11c5ead43dc403fccc44f11632c4e4f70da",
    "similarity": "c9f85a6d2f05e8ab272d7f8fd7781ffd42a78031d3161ee438e8817eda1267cf",
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_campaign_result_is_pinned(name, tmp_path):
    assert result_digest(CONFIGURATIONS[name](tmp_path)) == GOLDEN[name]
