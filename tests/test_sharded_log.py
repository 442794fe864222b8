"""The contract of :class:`repro.pipeline.shardlog.ShardedLog`, checked once
through both of its views.

``CoverageStore`` and ``PlanIndex`` supply record codecs; everything about
disk — attach, manifest validation, torn tails, appends, flush, atomic save,
compact — is the log's and is tested here, parametrized over the views (and,
where the record kind matters, over every kind a view writes).  What only
one view does (metadata enrichment, vector widths, queries, merge algebra)
stays in that view's own suite.
"""

import json
import os
import shutil
from typing import Callable, Dict, NamedTuple

import pytest

from repro.errors import ReproError
from repro.pipeline import CoverageStore, CoverageStoreError
from repro.pipeline.shardlog import ShardedLog
from repro.similarity import PlanIndex, PlanIndexError

VECTOR = (1.0, 0.0, 2.0)
TARGET = "ff" * 16


def key(n: int) -> str:
    """Keys sharing the hex prefix ``00aa``: one shard for every record kind
    (marks route by the same leading digits)."""
    return f"00aa{n:028x}"


#: Where every ``key(n)`` lands under the default 16 shards.
SHARD = 0x00AA % 16


class Kind(NamedTuple):
    """One record kind of one view: how to write it and how to see it."""

    name: str
    view: type
    error: type
    prefix: str
    manifest: str
    put: Callable[[ShardedLog, str], bool]
    has: Callable[[ShardedLog, str], bool]

    def segment(self, root, shard: int = SHARD) -> str:
        return os.path.join(str(root), f"{self.prefix}{shard:03d}.jsonl")


ENTRY = Kind(
    "coverage-entry", CoverageStore, CoverageStoreError, "shard-", "MANIFEST.json",
    lambda log, k: log.add(k, {"d": "mysql"}),
    lambda log, k: log.get(k) == {"d": "mysql"},
)
SOURCE = ENTRY._replace(
    name="coverage-source",
    put=lambda log, k: log.map_source(k, TARGET),
    has=lambda log, k: log.lookup_source(k) == TARGET,
)
MARK = ENTRY._replace(
    name="coverage-mark",
    put=lambda log, k: log.mark(k),
    has=lambda log, k: log.is_marked(k),
)
VECTORS = Kind(
    "similarity", PlanIndex, PlanIndexError, "sim-", "SIMILARITY.json",
    lambda log, k: log.add(k, VECTOR),
    lambda log, k: log.get(k) == VECTOR,
)

#: One kind per view for the view-independent contract …
VIEWS = [ENTRY, VECTORS]
#: … and every kind where a record's bytes are what is under test.
KINDS = [ENTRY, SOURCE, MARK, VECTORS]


def ids(kinds):
    return [kind.name for kind in kinds]


@pytest.fixture(params=VIEWS, ids=ids(VIEWS))
def view(request) -> Kind:
    return request.param


def populate(kind: Kind, log, count: int = 5) -> None:
    for n in range(count):
        assert kind.put(log, key(n))


# ------------------------------------------------------------- round trips


class TestRoundTrip:
    def test_directory_round_trip(self, view, tmp_path):
        root = str(tmp_path / "log")
        log = view.view()
        populate(view, log, count=50)
        assert log.save(root) == root
        with view.view.open(root) as loaded:
            assert loaded.to_payload() == log.to_payload()
            assert len(loaded) == 50

    def test_appends_are_durable_without_save(self, view, tmp_path):
        root = str(tmp_path / "log")
        with view.view(root) as log:
            populate(view, log)
            log.flush()
            # A second reader sees flushed appends even before save().
            with view.view.open(root) as reader:
                assert reader.to_payload() == log.to_payload()
        with view.view.open(root) as reopened:
            assert all(view.has(reopened, key(n)) for n in range(5))

    def test_views_coexist_in_one_directory(self, tmp_path):
        # Same directory, disjoint file names, independent lifecycles.
        root = str(tmp_path / "log")
        with CoverageStore.open(root) as store, PlanIndex.open(root) as index:
            populate(ENTRY, store, count=3)
            store.save()
            populate(VECTORS, index, count=4)
            index.flush()
        with CoverageStore.open(root) as store, PlanIndex.open(root) as index:
            assert len(store) == 3 and len(index) == 4
            index.compact()
            store.compact()
        with CoverageStore.open(root) as store, PlanIndex.open(root) as index:
            assert len(store) == 3 and len(index) == 4


# ---------------------------------------------------------- loud mismatches


class TestLoudFailures:
    def test_errors_are_repro_errors(self, view):
        assert issubclass(view.error, ReproError)

    def test_shard_count_mismatch_raises(self, view, tmp_path):
        root = str(tmp_path / "log")
        view.view(root, shard_count=8).save()
        with pytest.raises(view.error, match="has 8 shards, requested 16"):
            view.view(root, shard_count=16)

    def test_manifestless_directory_rejects_out_of_range_segment(self, view, tmp_path):
        # A log that crashed before its first manifest must still refuse a
        # too-small shard_count instead of silently dropping segments.
        root = str(tmp_path / "log")
        with view.view(root, shard_count=16) as log:
            populate(view, log)
        os.remove(os.path.join(root, view.manifest))
        with pytest.raises(view.error, match="outside the requested 8 shards"):
            view.view.open(root, shard_count=8)
        with view.view.open(root, shard_count=16) as reopened:
            assert len(reopened) == 5

    @pytest.mark.parametrize(
        "text",
        ["[]", '"MANIFEST"', '{"shard_count": "sixteen"}', '{"shard_count": 1.5}', "{tor"],
    )
    def test_unreadable_manifest_raises_typed_error(self, view, tmp_path, text):
        root = tmp_path / "log"
        root.mkdir()
        (root / view.manifest).write_text(text)
        with pytest.raises(view.error, match=view.manifest):
            view.view(str(root))

    def test_in_memory_save_requires_path(self, view):
        with pytest.raises(view.error, match=r"save\(\) needs a path"):
            view.view().save()

    def test_save_refuses_a_foreign_log(self, view, tmp_path):
        root = str(tmp_path / "log")
        with view.view(root, shard_count=64) as existing:
            view.put(existing, key(0))
            existing.save()
        other = view.view()
        view.put(other, key(1))
        with pytest.raises(view.error, match="merge\\(\\) instead of overwriting"):
            other.save(root)  # would destroy the 64-shard log's data
        # The victim is untouched; merge is the supported path.
        with view.view.open(root, shard_count=64) as survivor:
            assert view.has(survivor, key(0)) and len(survivor) == 1
            survivor.merge(other)
            survivor.save()
        with view.view.open(root, shard_count=64) as merged:
            assert len(merged) == 2


# --------------------------------------------------------------- atomicity


class TestAtomicRewrite:
    def test_save_leaves_no_tmp_and_counts_in_manifest(self, view, tmp_path):
        root = str(tmp_path / "log")
        with view.view(root) as log:
            populate(view, log)
            log.save()
        assert not [name for name in os.listdir(root) if name.endswith(".tmp")]
        with open(os.path.join(root, view.manifest)) as handle:
            manifest = json.load(handle)
        assert manifest["entries"] == 5
        assert manifest["shard_count"] == 16
        assert manifest["version"] == 1

    def test_torn_tail_is_skipped_on_load_and_healed_by_compact(self, view, tmp_path):
        root = str(tmp_path / "log")
        with view.view(root) as log:
            populate(view, log, count=3)
            log.save()
        with open(view.segment(root), "r+", encoding="utf-8") as handle:
            first = handle.readline()
            handle.seek(0, os.SEEK_END)
            handle.write(first)  # a duplicate record …
            handle.write(first[: len(first) // 2])  # … and a crash mid-write
        with view.view.open(root) as loaded:
            assert len(loaded) == 3  # dup collapsed, torn line skipped
            assert loaded.compact() == (5, 3)
        with open(view.segment(root), encoding="utf-8") as handle:
            assert all(json.loads(line) for line in handle)
        with view.view.open(root) as healed:
            assert len(healed) == 3

    def test_in_memory_compact_counts_records(self, view):
        log = view.view()
        populate(view, log, count=4)
        assert log.compact() == (4, 4)


# ------------------------------------------------- appends after a torn tail


@pytest.mark.parametrize("kind", KINDS, ids=ids(KINDS))
def test_append_after_a_torn_tail_starts_a_fresh_line(kind, tmp_path):
    """A crashed writer's fragment must never swallow a later record.

    Three records; the segment truncated at *every* byte offset of the last
    one (from "record absent" through "complete but for its newline"); then
    a clean open → add → flush → close.  The new record and every record
    that was fully written must be there on the next open.
    """
    origin = tmp_path / "origin"
    with kind.view(str(origin)) as log:
        populate(kind, log, count=3)
    with open(kind.segment(origin), "rb") as handle:
        data = handle.read()
    lines = data.splitlines(keepends=True)
    assert len(lines) == 3
    last = len(data) - len(lines[-1])
    for cut in range(last, len(data)):
        root = tmp_path / f"cut-{cut}"
        shutil.copytree(origin, root)
        with open(kind.segment(root), "wb") as handle:
            handle.write(data[:cut])
        with kind.view(str(root)) as log:
            assert kind.has(log, key(0)) and kind.has(log, key(1))
            assert kind.put(log, key(3))
            log.flush()
        with kind.view(str(root)) as reopened:
            present = [n for n in range(4) if kind.has(reopened, key(n))]
            # Only the newline was missing at the final offset: that record
            # was fully written and loads, everywhere else it is torn.
            expected = [0, 1, 2, 3] if cut == len(data) - 1 else [0, 1, 3]
            assert present == expected, f"truncated at byte {cut - last} of the last record"
            # The tail was repaired for good: later appends need no fix-up.
            assert kind.put(reopened, key(4))
        with kind.view(str(root)) as final:
            assert kind.has(final, key(3)) and kind.has(final, key(4))


@pytest.mark.parametrize("rewrite", ["save", "compact"])
def test_rewrite_clears_the_torn_tail_state(view, tmp_path, rewrite):
    root = str(tmp_path / "log")
    with view.view(root) as log:
        populate(view, log, count=2)
    with open(view.segment(root), "a", encoding="utf-8") as handle:
        handle.write('{"f": "tor')
    with view.view(root) as log:
        getattr(log, rewrite)()
        view.put(log, key(2))
    with open(view.segment(root), encoding="utf-8") as handle:
        assert [bool(line.strip()) for line in handle] == [True, True, True]


# ------------------------------------------------------------- golden bytes

#: The on-disk format, written out literally: text captured from the commit
#: before the log was extracted.  A change to any byte here is a format break
#: for every campaign directory already on disk.
GOLDEN: Dict[str, Dict[str, Dict[str, str]]] = {
    "coverage-entry": {
        "appended": {
            "MANIFEST.json": (
                '{\n  "entries": 0,\n  "marks": 0,\n  "shard_count": 2,\n'
                '  "sources": 0,\n  "version": 1\n}\n'
            ),
            "shard-000.jsonl": (
                '{"f":"0000aa","m":{"d":"mysql"},"t":"p"}\n'
                '{"f":"0000aa","m":{"d":"mysql","s":"0f0f"},"t":"p"}\n'
                '{"f":"0002cc","m":{"d":"tidb"},"t":"p"}\n'
            ),
            "shard-001.jsonl": (
                '{"f":"0001bb","t":"p"}\n'
                '{"f":"0000aa","k":"0003dd","t":"s"}\n'
                '{"k":"round:mysql:1","t":"m"}\n'
            ),
        },
        "saved": {
            "MANIFEST.json": (
                '{\n  "entries": 3,\n  "marks": 1,\n  "shard_count": 2,\n'
                '  "sources": 1,\n  "version": 1\n}\n'
            ),
            "shard-000.jsonl": (
                '{"f":"0000aa","m":{"d":"mysql","s":"0f0f"},"t":"p"}\n'
                '{"f":"0002cc","m":{"d":"tidb"},"t":"p"}\n'
            ),
            "shard-001.jsonl": (
                '{"f":"0001bb","t":"p"}\n'
                '{"f":"0000aa","k":"0003dd","t":"s"}\n'
                '{"k":"round:mysql:1","t":"m"}\n'
            ),
        },
    },
    "similarity": {
        "appended": {
            # PlanIndex.flush refreshes its manifest; CoverageStore.flush does not.
            "SIMILARITY.json": (
                '{\n  "dimensions": 3,\n  "entries": 3,\n  "shard_count": 2,\n'
                '  "version": 1\n}\n'
            ),
            "sim-000.jsonl": (
                '{"f":"0002cc","v":[7.0,0.0,0.25]}\n'
                '{"f":"0000aa","v":[1.0,0.0,2.0]}\n'
            ),
            "sim-001.jsonl": '{"f":"0001bb","v":[0.5,3.0,0.0]}\n',
        },
        "saved": {
            "SIMILARITY.json": (
                '{\n  "dimensions": 3,\n  "entries": 3,\n  "shard_count": 2,\n'
                '  "version": 1\n}\n'
            ),
            "sim-000.jsonl": (
                '{"f":"0000aa","v":[1.0,0.0,2.0]}\n'
                '{"f":"0002cc","v":[7.0,0.0,0.25]}\n'
            ),
            "sim-001.jsonl": '{"f":"0001bb","v":[0.5,3.0,0.0]}\n',
        },
    },
}

GOLDEN_PAYLOAD = {
    "coverage-entry": {
        "entries": {
            "0000aa": {"d": "mysql", "s": "0f0f"},
            "0002cc": {"d": "tidb"},
            "0001bb": {},
        },
        "sources": {"0003dd": "0000aa"},
        "marks": ["round:mysql:1"],
    },
    "similarity": {
        "entries": {
            "0002cc": [7.0, 0.0, 0.25],
            "0000aa": [1.0, 0.0, 2.0],
            "0001bb": [0.5, 3.0, 0.0],
        },
    },
}


def write_golden(view: Kind, log) -> None:
    if view.view is CoverageStore:
        log.add("0001bb")
        log.add("0000aa", {"d": "mysql"})
        log.add("0000aa", {"s": "0f0f"})
        log.add("0002cc", {"d": "tidb"})
        log.map_source("0003dd", "0000aa")
        log.mark("round:mysql:1")
    else:
        log.add("0001bb", [0.5, 3, 0])
        log.add("0002cc", [7, 0, 0.25])
        log.add("0000aa", [1, 0, 2])


def read_files(root: str) -> Dict[str, str]:
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8", newline="") as handle:
            files[name] = handle.read()
    return files


class TestGoldenBytes:
    def test_appends_then_save_write_exactly_these_bytes(self, view, tmp_path):
        root = str(tmp_path / "log")
        with view.view(root, shard_count=2) as log:
            write_golden(view, log)
            log.flush()
            assert read_files(root) == GOLDEN[view.name]["appended"]
            log.save()
            assert read_files(root) == GOLDEN[view.name]["saved"]
            log.compact()
            assert read_files(root) == GOLDEN[view.name]["saved"]

    @pytest.mark.parametrize("state", ["appended", "saved"])
    def test_a_directory_written_before_the_extraction_opens_unchanged(
        self, tmp_path, state
    ):
        # Both views side by side, as a campaign directory carries them.
        root = tmp_path / "log"
        root.mkdir()
        for name in ("coverage-entry", "similarity"):
            for filename, text in GOLDEN[name][state].items():
                with open(root / filename, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
        with CoverageStore.open(str(root), shard_count=2) as store:
            assert store.to_payload() == GOLDEN_PAYLOAD["coverage-entry"]
        with PlanIndex.open(str(root), shard_count=2) as index:
            assert index.to_payload() == GOLDEN_PAYLOAD["similarity"]
