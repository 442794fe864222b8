"""``plan_ingest`` — the converter / tool-builder path, with a working set
larger than the conversion cache.

Set-up explains 400 generated queries (16 generated schemas x 25) on each of
the six relational dialects in every format its converter parses (about
5.2k texts, 4.5k unique — four times the hub's 1024-entry LRU) and adds the YCSB, WDBench
and TPC-H plan texts of mongodb and neo4j and the influxdb explain output,
so all nine converters and all 17 (dbms, format) pairs are exercised.

A pass is one round: a fresh ``PlanIngestService(hub=ConverterHub(),
persist_to=<tmp>)``, ``ingest_batch`` calls of 64 sources drawn half Zipf /
half uniform, ``checkpoint()``, ``close()``, reopen and warm-start
re-ingest of the first batches (index hits, zero conversions), then the
similarity step QPG's similarity mode performs — ``embed_plan`` →
``PlanIndex.nearest_distance`` → ``add`` over the round's first unique
plans (capped: the dense matrix is rebuilt per add, so the step is
quadratic) — ``query(k=5)`` probes, ``save`` and ``PlanIndex.open``.
Unit = source ingested; op and chunk = one ``ingest_batch`` call; the store
and similarity steps are chunks of their own.

Why this workload: converters, core formats/fingerprints, the pipeline
store and similarity do all the work; sqlparser, optimizer and engine do
none in the timed phase.  ``--seed`` draws the generated queries, the
corpus order the Zipf ranks follow, and every batch.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import time
from typing import Dict, List, Sequence, Tuple

from repro.benchmarking import tpch, wdbench, ycsb
from repro.converters import ConverterHub, converter_for
from repro.dialects import RELATIONAL_DIALECTS, create_dialect
from repro.errors import ReproError
from repro.pipeline import CoverageStore, PlanIngestService, PlanSource
from repro.similarity import PlanIndex, embed_plan
from repro.storage.timeseries_store import Point
from repro.testing.generator import RandomQueryGenerator

from e2ebench import replay
from e2ebench.harness import (
    CheckFailed, Chunk, PassRecorder, RunData, SetupClock, Workload, scaled,
)

#: Plan size follows the generated schema, so one schema per dialect moved
#: throughput 8 % between seeds; sixteen per dialect average that out.
SCHEMAS_PER_DIALECT = 16
QUERIES_PER_SCHEMA = 25
BATCH = 64
COLD_BATCHES = 300
WARM_BATCHES = 80
SIMILARITY_PLANS = 500
SIMILARITY_PROBES = 400
ZIPF_EXPONENT = 1.1

Key = Tuple[str, str, str]


def _formats(dialect, converter) -> List[str]:
    offered = {name.lower() for name in dialect.plan_formats}
    return [name for name in converter.formats if name in offered]


class PlanIngestWorkload(Workload):
    name = "plan_ingest"

    # -- set-up ---------------------------------------------------------------

    def setup(self, clock: SetupClock) -> None:
        rng = random.Random(f"plan_ingest:{self.seed}")
        schemas = 2 if self.quick else SCHEMAS_PER_DIALECT
        queries = 15 if self.quick else QUERIES_PER_SCHEMA
        self.cold_batches = 12 if self.quick else scaled(COLD_BATCHES, self.scale)
        self.warm_batches = 4 if self.quick else scaled(WARM_BATCHES, self.scale)
        self.similarity_plans = 60 if self.quick else scaled(SIMILARITY_PLANS, self.scale)
        self.probes = 40 if self.quick else scaled(SIMILARITY_PROBES, self.scale)
        corpus: List[Key] = []
        with clock.step("dialects.explain_corpus"):
            for name in RELATIONAL_DIALECTS:
                for _ in range(schemas):
                    corpus.extend(self._relational_texts(name, rng.randrange(1, 10**6), queries))
        with clock.step("dialects.nosql_corpus"):
            corpus.extend(self._nosql_texts(rng))
        #: Distinct ``(dbms, format, text)`` sources; the draw below ranks
        #: them in a seed-shuffled order.
        self.corpus = list(dict.fromkeys(corpus))
        rng.shuffle(self.corpus)
        with clock.step("converters.reference_fingerprints"):
            # The oracle: each unique text through its converter directly,
            # no hub, no cache, no ingest service.
            self.reference: Dict[Key, str] = {
                (dbms, fmt, text): converter_for(dbms).convert(text, format=fmt).fingerprint()
                for dbms, fmt, text in self.corpus
            }
        weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.corpus))
        ))
        self.batches: List[List[PlanSource]] = []
        self.batch_keys: List[List[Key]] = []
        for _ in range(self.cold_batches):
            keys = rng.choices(self.corpus, cum_weights=weights, k=BATCH // 2)
            keys += rng.choices(self.corpus, k=BATCH - BATCH // 2)
            rng.shuffle(keys)
            self.batch_keys.append(keys)
            self.batches.append([PlanSource(dbms, text, fmt) for dbms, fmt, text in keys])
        self.probe_keys = rng.choices(self.corpus, k=self.probes)
        self.pass_dir = os.path.join(self.tmp, "warm-up")
        with clock.step("bench.warm_up"):
            recorder = PassRecorder(self.tracer, 1)
            for chunk in self._round_chunks(ingest=4, warm=2, plans=20, probes=10):
                chunk.run(recorder)

    def _relational_texts(self, name: str, seed: int, queries: int) -> List[Key]:
        dialect = create_dialect(name)
        generator = RandomQueryGenerator(seed=seed)
        for statement in generator.schema_statements():
            dialect.execute(statement)
        dialect.analyze_tables()
        formats = _formats(dialect, converter_for(name))
        texts: List[Key] = []
        for _ in range(queries):
            query = generator.select_query()
            for plan_format in formats:
                try:
                    texts.append((name, plan_format, dialect.explain(query, format=plan_format).text))
                except ReproError:
                    break  # a query this DBMS rejects has no plan in any format
        return texts

    def _nosql_texts(self, rng: random.Random) -> List[Key]:
        texts: List[Key] = []
        mongodb = create_dialect("mongodb")
        ycsb.load_ycsb(mongodb, records=500, seed=rng.randrange(10**6))
        commands = ycsb.workload_a(50, 500, rng.randrange(10**6))
        commands += ycsb.workload_scan(20, 500, rng.randrange(10**6))
        texts += [("mongodb", "json", text) for text in ycsb.explain_workload(mongodb, commands)]
        mongodb = create_dialect("mongodb")
        tpch.load_mongodb(mongodb, scale=0.5)
        for collection, pipeline in tpch.MONGODB_PIPELINES.values():
            document = mongodb.explain_aggregate(collection, pipeline)
            texts.append(("mongodb", "json", json.dumps(document, default=str)))

        graph = create_dialect("neo4j")
        wdbench.load_wdbench(graph, seed=rng.randrange(10**6))
        patterns = wdbench.generate_patterns(40, rng.randrange(10**6))
        tpch_graph = create_dialect("neo4j")
        tpch.load_neo4j(tpch_graph, scale=0.5)
        for dialect, statements in ((graph, patterns), (tpch_graph, tpch.NEO4J_QUERIES.values())):
            for plan_format in _formats(dialect, converter_for("neo4j")):
                for statement in statements:
                    texts.append(("neo4j", plan_format, dialect.explain(statement, format=plan_format).text))

        influx = create_dialect("influxdb")
        for index in range(8):
            influx.write_points(f"m{index}", [
                Point(timestamp=stamp, tags={"host": f"h{stamp % (index + 1)}"},
                      fields={"v": float(stamp), "w": float(index)})
                for stamp in range(rng.randrange(20, 400))
            ])
            for fields in ("v", "w", "v, w"):
                texts.append(("influxdb", "text", influx.explain(f"SELECT {fields} FROM m{index}").text))
        return texts

    # -- chunks ---------------------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self.close()
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir = os.path.join(self.tmp, f"pass-{index}")

    def _ingest(self, recorder: PassRecorder, service: PlanIngestService, position: int) -> List[int]:
        report = recorder.lane().timed(
            "pipeline.ingest_batch", service.ingest_batch, self.batches[position]
        )
        return [report.conversions, report.cache_hits, report.index_hits,
                report.errors, report.unique_fingerprints, report.new_fingerprints]

    def _open_cold(self, recorder: PassRecorder) -> None:
        self.hub = ConverterHub()
        self.service = PlanIngestService(
            hub=self.hub, max_workers=1, persist_to=os.path.join(self.pass_dir, "store")
        )

    def _checkpoint(self, recorder: PassRecorder) -> None:
        with self.tracer.span("pipeline.store_checkpoint"):
            self.service.checkpoint()

    def _reopen(self, recorder: PassRecorder) -> int:
        self.service.close()
        with self.tracer.span("pipeline.store_open"):
            self.reopened = PlanIngestService(
                hub=ConverterHub(), max_workers=1, persist_to=os.path.join(self.pass_dir, "store")
            )
        return self.reopened.unique_plan_count()

    def _score_add(self, recorder: PassRecorder, plans: int) -> float:
        span = self.tracer.span
        self.index = PlanIndex()
        self.round_plans = [
            self.service.plan_for(fingerprint)
            for fingerprint in sorted(self.service.fingerprints())[:plans]
        ]
        reward = 0.0
        for plan in self.round_plans:
            with span("similarity.embed"):
                vector = embed_plan(plan)
            with span("similarity.score_add"):
                reward += self.index.nearest_distance(vector)
                self.index.add(plan.fingerprint(), vector)
        return reward

    def _query(self, recorder: PassRecorder, probes: int) -> List[list]:
        span = self.tracer.span
        results = []
        for key in self.probe_keys[:probes]:
            vector = embed_plan(self.hub.convert(key[0], key[2], key[1]))
            with span("similarity.query"):
                results.append(self.index.query(vector, k=5))
        return results

    def _save(self, recorder: PassRecorder) -> None:
        with self.tracer.span("similarity.save"):
            self.index.save(os.path.join(self.pass_dir, "similarity"))

    def _open_index(self, recorder: PassRecorder) -> int:
        with self.tracer.span("similarity.open"):
            self.opened_index = PlanIndex.open(os.path.join(self.pass_dir, "similarity"))
        return len(self.opened_index)

    def _round_chunks(self, ingest: int, warm: int, plans: int, probes: int) -> List[Chunk]:
        chunks = [Chunk("pipeline.open", 0, self._open_cold)]
        chunks += [
            Chunk(f"ingest:{i}", BATCH, lambda rec, i=i: self._ingest(rec, self.service, i))
            for i in range(ingest)
        ]
        chunks.append(Chunk("pipeline.store_checkpoint", 0, self._checkpoint))
        chunks.append(Chunk("pipeline.store_open", 0, self._reopen))
        chunks += [
            Chunk(f"warm:{i}", BATCH, lambda rec, i=i: self._ingest(rec, self.reopened, i))
            for i in range(warm)
        ]
        chunks.append(Chunk("similarity.score_add", 0, lambda rec: self._score_add(rec, plans)))
        chunks.append(Chunk("similarity.query", 0, lambda rec: self._query(rec, probes)))
        chunks.append(Chunk("similarity.save", 0, self._save))
        chunks.append(Chunk("similarity.open", 0, self._open_index))
        return chunks

    def chunks(self) -> List[Chunk]:
        return self._round_chunks(
            self.cold_batches, self.warm_batches, self.similarity_plans, self.probes
        )

    # -- gates ----------------------------------------------------------------

    def verify(self, passes: Sequence[PassRecorder]) -> None:
        expected = {
            self.reference[key] for keys in self.batch_keys for key in keys
        }
        if set(self.service.fingerprints()) != expected:
            raise CheckFailed("ingested fingerprints differ from the direct-converter reference")
        if set(self.reopened.fingerprints()) != expected:
            raise CheckFailed("the reopened store returns a different fingerprint set")
        if self.service.stats.errors or self.reopened.stats.errors:
            raise CheckFailed("ingest reported conversion errors")
        if self.reopened.stats.conversions != 0:
            raise CheckFailed(
                f"warm-start re-ingest converted {self.reopened.stats.conversions} sources"
            )
        if len(self.opened_index) != len(self.round_plans):
            raise CheckFailed("the reopened similarity index lost entries")

    def inputs(self) -> object:
        return [[self.reference[key] for key in keys] for keys in self.batch_keys]

    def exact_counts(self) -> Dict[str, int]:
        return {
            "corpus.unique_texts": len(self.corpus),
            "converters.conversions": self.service.stats.conversions,
            "pipeline.unique_plans": self.service.stats.unique_plans,
            "pipeline.index_hits": self.reopened.stats.index_hits,
        }

    # -- per-layer ------------------------------------------------------------

    def layer_metrics(self, run: RunData) -> Dict[str, float]:
        chunk_ms = {chunk.label: seconds * 1e3 for chunk, seconds in zip(run.chunks, run.chunk_s)}
        cold_ms = sum(run.op_ms[: self.cold_batches])
        cold, warm = self.service.stats, self.reopened.stats
        cache = self.hub.cache_stats
        store_dir = os.path.join(self.pass_dir, "store")
        store_bytes = sum(
            os.path.getsize(os.path.join(store_dir, name)) for name in os.listdir(store_dir)
        )
        plans = len(self.round_plans)
        result = {
            "pipeline.ingest_us_per_source": cold_ms * 1e3 / cold.sources,
            "pipeline.dedup_ratio": cold.unique_plans / cold.sources,
            "pipeline.index_hit_rate": warm.index_hits / warm.sources,
            "pipeline.store_checkpoint_ms": chunk_ms["pipeline.store_checkpoint"],
            "pipeline.store_open_ms": chunk_ms["pipeline.store_open"],
            "pipeline.store_bytes_per_entry": store_bytes / cold.unique_plans,
            "converters.cache_hit_rate": cache.hit_rate,
            "converters.cache_evictions": float(cache.evictions),
            "similarity.save_ms": chunk_ms["similarity.save"],
            "similarity.open_ms": chunk_ms["similarity.open"],
        }
        spans = self.tracer.self_time_by_name()
        result["similarity.embed_us"] = spans["similarity.embed"] / plans / 1e3
        result["similarity.score_add_us"] = spans["similarity.score_add"] / plans / 1e3
        result["similarity.query_us"] = spans["similarity.query"] / self.probes / 1e3

        # The store's append path alone: the round's entries into a fresh
        # durable store, flushed per entry as single-plan ingests do.
        entries = [
            (fingerprint, self.service.coverage.get(fingerprint))
            for fingerprint in sorted(self.service.fingerprints())
        ]
        with CoverageStore(path=os.path.join(self.pass_dir, "append-replay")) as store:
            started = time.perf_counter_ns()
            for fingerprint, meta in entries:
                store.add(fingerprint, meta)
                store.flush()
            result["pipeline.store_append_us"] = (time.perf_counter_ns() - started) / len(entries) / 1e3

        result.update(replay.convert_replay(self.corpus))
        return result

    def close(self) -> None:
        for name in ("service", "reopened", "index", "opened_index"):
            resource = getattr(self, name, None)
            if resource is not None:
                resource.close()
