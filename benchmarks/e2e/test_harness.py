"""Tier-1 checks of the benchmark harness (no timing thresholds).

* ``--quick`` on all four workloads prints every declared end-to-end name
  exactly once per workload, and the names agree with ``BENCHMARK.json``;
* the min-over-passes / percentile / span self-time arithmetic;
* the same ``--seed`` gives the same generated inputs and exact counts, a
  different seed gives different inputs;
* the dialect proxy forwards unknown attributes and re-raises unchanged.
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from e2ebench import metrics  # noqa: E402
from e2ebench.harness import Lane, SetupClock  # noqa: E402
from e2ebench.proxies import DialectProxy  # noqa: E402
from e2ebench.stats import (  # noqa: E402
    DeterminismError, min_over_passes, percentile, quartile_spread,
)
from e2ebench.tracing import Tracer, self_times  # noqa: E402
from e2ebench.workloads import service_mix  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(*extra):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *extra],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return completed.stdout.splitlines()


@pytest.fixture(scope="module")
def quick_lines():
    return run_quick()


# -- the manifest and the one command ------------------------------------------------


def test_manifest_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        assert json.load(handle) == metrics.manifest()


def test_declared_names_are_well_formed_and_unique():
    names = [row[0] for row in metrics.END_TO_END] + [row[0] for row in metrics.PER_LAYER]
    names += list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(row[:3] == ("setup_s", "s", "lower") for row in metrics.END_TO_END)
    assert all(0 < row[3] <= 0.25 for row in metrics.END_TO_END)
    assert all(len(why) <= 200 and "\n" not in why for why in metrics.WORKLOADS.values())


def test_quick_prints_every_end_to_end_metric_once_per_workload(quick_lines):
    for workload in metrics.WORKLOADS:
        for metric, unit, _, _ in metrics.END_TO_END:
            pattern = re.compile(rf"^{workload}/{re.escape(metric)} = \S+ {re.escape(unit)}$")
            assert sum(1 for line in quick_lines if pattern.match(line)) == 1, (workload, metric)
        assert f"{workload}/ops_failed = 0" in quick_lines
        assert any(line.startswith(f"{workload}/ops_attempted = ") for line in quick_lines)
        assert any("NOT COMPARABLE" in line for line in quick_lines if line.startswith(workload))
    summary = json.loads(quick_lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 4


def test_single_workload_result_line_follows_the_contract():
    lines = run_quick("--workload", "tpch_exec", "--seed", "5", "--trace", "1")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {row[0] for row in metrics.PER_LAYER}
    units = {row[0]: row[1] for row in metrics.PER_LAYER}
    assert all(value["unit"] == units[name] for name, value in result["metrics"].items())
    assert result["metrics"]["engine.execute_us"]["value"] > 0
    assert os.path.exists(os.path.join(HERE, "out", "trace-tpch_exec.jsonl"))


def test_same_seed_same_inputs_and_counts_different_seed_different_inputs(quick_lines):
    def facts(lines, workload):
        return [line for line in lines
                if line.startswith((f"{workload}/count ", f"{workload}/inputs "))]

    again = run_quick("--workload", "service_mix", "--seed", "1")
    other = run_quick("--workload", "service_mix", "--seed", "2")
    assert facts(again, "service_mix") == facts(quick_lines, "service_mix")
    assert facts(again, "service_mix")
    assert facts(other, "service_mix") != facts(again, "service_mix")


def test_generated_requests_depend_only_on_the_seed():
    def block(seed):
        rng = random.Random(seed)
        return service_mix._block(rng, service_mix._read_templates(rng), 0)

    assert block("a") == block("a")
    assert block("a") != block("b")
    kinds = [kind for kind, _ in block("a")]
    assert len(kinds) == service_mix.BLOCK and kinds.count("service.write") == 9


# -- arithmetic ---------------------------------------------------------------------


def test_min_over_passes_is_elementwise_and_checks_alignment():
    assert min_over_passes([[3, 5, 9], [4, 2, 9], [7, 6, 1]]) == [3, 2, 1]
    with pytest.raises(DeterminismError):
        min_over_passes([[1, 2], [1]])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    # Between two clusters a real sample is reported, never a blend.
    assert percentile([1] * 95 + [100] * 5, 0.95) == 1
    assert percentile([1] * 94 + [100] * 6, 0.95) == 100


def test_quartile_spread_matches_the_driver_formula():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (third - first) / statistics.median(values)


def test_span_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, 0, 100),   # root
        (1, 0, 10, 40),      # child
        (2, 0, 30, 60),      # overlapping sibling (another thread)
        (3, 1, 15, 20),      # grandchild
        (4, 0, 90, 130),     # child running past its parent is clipped
    ]
    times = self_times(spans)
    assert times[0] == 100 - (50 + 10)
    assert times[1] == 30 - 5
    assert times[2] == 30
    assert times[3] == 5


def test_tracer_records_nested_spans_only_when_enabled():
    tracer = Tracer("w")
    with tracer.span("outer"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        tracer.add("leaf", 1, 2, op=7)
    parents = {row[2]: row[1] for row in tracer.spans}
    assert parents == {"outer": None, "inner": outer, "leaf": outer}
    assert sum(tracer.self_times().values()) >= 0


def test_setup_clock_keeps_each_steps_fastest_round():
    clock = SetupClock()
    for durations in ({"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 5.0}):
        clock.begin_round()
        clock.rounds[-1].update(durations)
    assert clock.minima() == {"a": 2.0, "b": 1.0}


# -- the proxy ----------------------------------------------------------------------


class _Inner:
    name = "fake"
    marker = object()

    def execute(self, statement):
        if statement == "boom":
            raise KeyError("boom")
        return [statement]


def test_dialect_proxy_forwards_and_reraises_unchanged():
    lane = Lane(0, Tracer("w"))
    proxy = DialectProxy(_Inner(), lane)
    assert proxy.name == "fake"
    assert proxy.marker is _Inner.marker
    with pytest.raises(AttributeError):
        proxy.no_such_attribute
    assert proxy.execute("SELECT 1") == ["SELECT 1"]
    with pytest.raises(KeyError) as caught:
        proxy.execute("boom")
    assert caught.value.args == ("boom",)
    assert lane.kinds == ["dialects.execute", "dialects.execute"]
    assert lane.outcomes == [None, "failed:KeyError"]
