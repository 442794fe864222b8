"""Campaign oracles skip failed statements, and count the unexpected ones.

A ``ReproError`` is the simulated DBMS rejecting a generated statement: it
is skipped, as SQLancer skips statements a real DBMS rejects.  Any other
exception is a defect of this program: it is skipped too, so the round
completes, but counted in ``CampaignResult.unexpected_errors``.
"""

import glob
import json
import os

from repro.dialects import create_dialect
from repro.parallel import ShardedCampaign
from repro.testing import campaign as campaign_module
from repro.testing.campaign import TestingCampaign
from repro.testing.failures import SkipFailures
from repro.errors import DialectError

CONFIG = dict(seed=1, queries_per_dbms=15, cert_pairs_per_dbms=6, bound_checks_per_dbms=2)


class _TypeErrorOnce:
    """A dialect whose first ``SELECT`` of each DBMS raises ``TypeError``."""

    def __init__(self, inner, failed):
        self._inner = inner
        self._failed = failed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, statement):
        if statement.startswith("SELECT") and self._inner.name not in self._failed:
            self._failed.add(self._inner.name)
            raise TypeError("injected defect")
        return self._inner.execute(statement)


def _flaky_factory():
    failed = set()
    return lambda name, options: _TypeErrorOnce(create_dialect(name, **options), failed)


def test_skip_failures_counts_only_non_repro_errors():
    skip = SkipFailures()
    with skip:
        raise DialectError("mysql", "rejected")
    assert skip.failed and skip.unexpected == 0
    with skip:
        raise TypeError("defect")
    assert skip.failed and skip.unexpected == 1
    with skip:
        pass
    assert not skip.failed and skip.unexpected == 1


def test_an_unexpected_error_is_counted_once_and_the_round_completes():
    result = TestingCampaign(
        dbms_names=["mysql"], dialect_factory=_flaky_factory(), **CONFIG
    ).run()
    assert result.rounds_completed == 1
    assert result.unexpected_errors == 1
    assert [payload["unexpected_errors"] for _, payload in result.round_payloads] == [1]


def test_the_default_campaign_counts_none():
    result = TestingCampaign().run()
    assert result.unexpected_errors == 0
    assert len(result.table5_rows()) == 17


def test_restored_rounds_keep_the_count_and_old_payloads_read_zero(tmp_path):
    settings = dict(dbms_names=["mysql"], persist_to=str(tmp_path), **CONFIG)
    first = TestingCampaign(dialect_factory=_flaky_factory(), **settings).run()
    assert first.unexpected_errors == 1
    resumed = TestingCampaign(**settings).run()
    assert (resumed.rounds_skipped, resumed.unexpected_errors) == (1, 1)
    (path,) = glob.glob(os.path.join(str(tmp_path), "round-*.json"))
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    del payload["unexpected_errors"]  # a round persisted before the counter
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert TestingCampaign(**settings).run().unexpected_errors == 0


def test_sharded_campaigns_sum_the_count(monkeypatch):
    factory = _flaky_factory()
    monkeypatch.setattr(
        campaign_module, "create_dialect", lambda name, **options: factory(name, options)
    )
    merged = ShardedCampaign(
        dbms_names=["mysql", "postgresql"], shards=2, parallel=False, **CONFIG
    ).run()
    assert merged.rounds_completed == 2
    assert merged.unexpected_errors == 2
