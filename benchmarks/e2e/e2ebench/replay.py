"""Staged replay: each layer's public function on the inputs a workload saw.

The timed passes only see whole ops (a dialect call, an ingest batch, a
service request).  The replay takes the statements and plan texts those ops
carried and pushes them through one layer at a time — ``tokenize``,
``parse_sql``, ``planner.plan_statement``, ``executor.execute``,
``shape_plan`` / ``serialize_plan``, ``hub.convert(use_cache=False)``, the
fingerprints — so a change to one layer shows in that layer's number.
Means are per call, weighted the way the workload issued the calls.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.converters import ConverterHub
from repro.core.compare import structural_fingerprint
from repro.errors import ReproError
from repro.service import FrameDecoder, protocol
from repro.sqlparser import ast, parse_sql, tokenize

#: stage -> the per-layer metric its mean feeds.
STAGE_METRICS = {
    "lex": "sqlparser.lex_us",
    "parse": "sqlparser.parse_us",
    "plan": "optimizer.plan_us",
    "execute": "engine.execute_us",
    "shape": "dialects.shape_us",
    "serialize": "dialects.serialize_us",
}


class StageTotals:
    """Summed nanoseconds and call counts per stage."""

    def __init__(self) -> None:
        self.nanos: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}

    def add(self, stage: str, nanos: int) -> None:
        self.nanos[stage] = self.nanos.get(stage, 0) + nanos
        self.calls[stage] = self.calls.get(stage, 0) + 1

    def mean_us(self, stage: str) -> float:
        calls = self.calls.get(stage, 0)
        return self.nanos.get(stage, 0) / calls / 1e3 if calls else 0.0

    def metrics(self) -> Dict[str, float]:
        return {metric: self.mean_us(stage) for stage, metric in STAGE_METRICS.items()}


def staged_replay(dialect, calls: Iterable[Tuple[str, str, object, object]], totals: StageTotals) -> None:
    """Replay logged dialect calls on *dialect*, one lifecycle stage at a time.

    *calls* are ``(method, statement, format, _)`` rows in issue order, as
    :class:`~e2ebench.proxies.DialectProxy` logs them.  SELECTs go through
    every stage separately; anything else is applied with
    ``dialect.execute`` so the catalog the later statements plan against
    evolves as it did in the workload.  A statement the workload's DBMS
    rejected is rejected here too and simply contributes fewer stages.
    """
    clock = time.perf_counter_ns
    for method, statement, plan_format, _ in calls:
        try:
            started = clock()
            tokenize(statement)
            lexed = clock()
            statements = parse_sql(statement)
            totals.add("lex", lexed - started)
            totals.add("parse", clock() - lexed)
            if len(statements) != 1 or not isinstance(statements[0], ast.SelectStatement):
                dialect.execute(statement)
                continue
            started = clock()
            physical = dialect.planner.plan_statement(statements[0])
            totals.add("plan", clock() - started)
            if method == "execute":
                started = clock()
                dialect.executor.execute(physical)
                totals.add("execute", clock() - started)
            else:
                started = clock()
                raw = dialect.shape_plan(physical)
                shaped = clock()
                dialect.serialize_plan(raw, plan_format)
                totals.add("shape", shaped - started)
                totals.add("serialize", clock() - shaped)
        except ReproError:
            continue


def convert_replay(sources: Sequence[Tuple[str, str, str]]) -> Dict[str, float]:
    """Convert each distinct ``(dbms, format, text)`` with the cache off,
    then fingerprint the fresh plans; returns the converters/core metrics."""
    hub = ConverterHub()
    clock = time.perf_counter_ns
    by_pair: Dict[Tuple[str, str], List[int]] = {}
    fingerprint_ns = structural_ns = nodes = 0
    plans = 0
    for dbms, plan_format, text in sources:
        started = clock()
        plan = hub.convert(dbms, text, plan_format, use_cache=False)
        converted = clock()
        plan.fingerprint()
        fingerprinted = clock()
        structural_fingerprint(plan)
        structural_ns += clock() - fingerprinted
        fingerprint_ns += fingerprinted - converted
        by_pair.setdefault((dbms, plan_format), []).append(converted - started)
        nodes += plan.node_count()
        plans += 1
    if not plans:
        return {}
    result = {
        "converters.convert_us": sum(sum(v) for v in by_pair.values()) / plans / 1e3,
        "core.fingerprint_us": fingerprint_ns / plans / 1e3,
        "core.structural_fingerprint_us": structural_ns / plans / 1e3,
        "core.plan_nodes_mean": nodes / plans,
    }
    for (dbms, plan_format), samples in by_pair.items():
        result[f"converters.convert_us.{dbms}.{plan_format}"] = sum(samples) / len(samples) / 1e3
    return result


def distinct_sources(logs: Iterable[Tuple[str, Sequence[tuple]]]) -> List[Tuple[str, str, str]]:
    """Distinct ``(dbms, format, text)`` explain outputs of proxy logs, in
    first-seen order."""
    seen = {}
    for dbms, calls in logs:
        for method, _, plan_format, text in calls:
            if method == "explain":
                seen.setdefault((dbms, plan_format, text), None)
    return list(seen)


def wire_codec_replay(frames: Sequence[Tuple[dict, dict]]) -> Dict[str, float]:
    """Encode every recorded request and response, then decode the frames
    through a :class:`FrameDecoder`; returns bytes and codec time per op."""
    if not frames:
        return {}
    clock = time.perf_counter_ns
    started = clock()
    encoded = [
        protocol.encode_message(request) + protocol.encode_message(response)
        for request, response in frames
    ]
    decoder = FrameDecoder()
    decoded = 0
    for data in encoded:
        decoded += len(decoder.feed(data))
    elapsed = clock() - started
    if decoded != 2 * len(frames):
        raise AssertionError("frame decoder lost messages")
    return {
        "service.wire_bytes_per_op": sum(len(data) for data in encoded) / len(frames),
        "service.wire_codec_us": elapsed / len(frames) / 1e3,
    }
