"""The bisecting ``OrderedIndex.range_scan`` against the linear scan it replaced.

``range_scan`` used to walk every entry and wrap each leading value in a
fresh ``_SortKey``.  It now bisects the sorted entries to the ``[low,
high]`` slice.  The linear scan is kept here verbatim as a fixture
(``linear_range_scan``) and hypothesis checks that both yield the identical
``(key, row_id)`` sequence over NULLs, bools, ``1`` / ``1.0`` ties,
strings, mixed types and exclusive bounds.

NaN is the one value that does not sort: it compares false both ways, so
``insort`` stops keeping the entries ordered once a NaN leading value is
inserted, and SQL can store one (``CAST('nan' AS FLOAT)``).  Such an index
keeps scanning every entry; ``TestNaN`` pins the output it had before, and
that point and prefix lookups, removals and the uniqueness check test every
entry too rather than bisect.

Entries hold native ``(rank, value)`` tuples instead of ``_SortKey``
objects; ``TestNativeKeys`` checks entry order and every lookup against a
reference index built on ``sortable()`` and a linear filter, NaN (in any
key component), infinities and ``-0.0`` included.  ``TestInListLookups``
pins ``col IN (…)`` index scans with repeated values against stdlib
``sqlite3``.
"""

import math
import sqlite3
from bisect import insort
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Index
from repro.dialects import create_dialect
from repro.errors import StorageError
from repro.storage import OrderedIndex
from repro.storage.index import _SortKey, sortable


def linear_range_scan(index, low=None, high=None, include_low=True, include_high=True):
    """The pre-bisection ``OrderedIndex.range_scan`` body, verbatim (fixture)."""
    for wrapped, raw, row_id in index._entries:
        leading = raw[0] if raw else None
        if leading is None:
            continue
        leading_key = _SortKey(leading)
        if low is not None:
            low_key = _SortKey(low)
            if leading_key < low_key or (leading_key == low_key and not include_low):
                continue
        if high is not None:
            high_key = _SortKey(high)
            if high_key < leading_key or (leading_key == high_key and not include_high):
                continue
        yield raw, row_id


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, 1.0, 1.5, -2.5, 3.0, math.inf, -math.inf]),
    st.sampled_from(["", "1", "a", "b", "True"]),
)


def _build(keys):
    index = OrderedIndex(Index("i", "t", ["a", "b"]))
    for row_id, key in enumerate(keys):
        index.insert(key, row_id)
    return index


def _assert_same(index, low, high, include_low, include_high):
    expected = list(linear_range_scan(index, low, high, include_low, include_high))
    actual = list(index.range_scan(low, high, include_low, include_high))
    assert actual == expected


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_VALUES, _VALUES), max_size=40),
    _VALUES,
    _VALUES,
    st.booleans(),
    st.booleans(),
)
def test_bisect_matches_linear_scan(keys, low, high, include_low, include_high):
    _assert_same(_build(keys), low, high, include_low, include_high)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_VALUES, _VALUES), max_size=30),
    st.lists(st.integers(min_value=0, max_value=29), max_size=10),
    _VALUES,
    _VALUES,
)
def test_bisect_matches_linear_scan_after_removals(keys, removed, low, high):
    index = _build(keys)
    for row_id in removed:
        if row_id < len(keys):
            index.remove(keys[row_id], row_id)
    _assert_same(index, low, high, True, True)


def test_ties_between_int_float_and_bool_are_inclusive_or_not_together():
    index = _build([(1, None), (1.0, None), (True, None), (2, None), (0, None)])
    assert [row for _, row in index.range_scan(1, 1)] == [0, 1, 2]
    assert [row for _, row in index.range_scan(1, 2, include_low=False)] == [3]
    assert [row for _, row in index.range_scan(0, 1.0, include_high=False)] == [4]


class TestNaN:
    NAN = float("nan")

    def _index(self):
        index = OrderedIndex(Index("i", "t", ["a"]))
        for row_id, value in enumerate([1.0, self.NAN, 3.0, None, 0.5, 2.0, self.NAN, 5.0]):
            index.insert((value,), row_id)
        return index

    def test_output_pinned(self):
        # Captured from the linear scan before bisection: every NaN entry is
        # yielded for every range, and 0.5 sits after a NaN, out of order.
        index = self._index()
        cases = {
            (None, None, True, True): [0, 1, 4, 5, 2, 6, 7],
            (0.7, 3.0, True, True): [0, 1, 5, 2, 6],
            (2.0, None, False, True): [1, 2, 6, 7],
            (None, 2.0, True, False): [0, 1, 4, 6],
            (0.0, 1.0, True, True): [0, 1, 4, 6],
        }
        for (low, high, include_low, include_high), expected in cases.items():
            scanned = index.range_scan(low, high, include_low, include_high)
            assert [row for _, row in scanned] == expected

    @given(_VALUES, _VALUES, st.booleans(), st.booleans())
    def test_matches_linear_scan(self, low, high, include_low, include_high):
        _assert_same(self._index(), low, high, include_low, include_high)

    def test_nan_bounds_match_linear_scan(self):
        index = _build([(1, 2), (None, 1), ("a", 0), (2.5, 2)])
        for low, high in [(self.NAN, None), (None, self.NAN), (self.NAN, self.NAN)]:
            _assert_same(index, low, high, True, True)

    def test_sql_can_store_nan_in_an_indexed_column(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (c0 FLOAT, c1 INT)")
        dialect.execute("CREATE INDEX i0 ON t (c0)")
        dialect.execute(
            "INSERT INTO t (c0, c1) VALUES "
            "(1.0, 0), (CAST('nan' AS FLOAT), 1), (3.0, 2), (0.5, 3)"
        )
        index = dialect.database.index("i0")
        keys = [key[0] for key, _ in index.ordered_entries()]
        assert keys[0] == 1.0 and math.isnan(keys[1]) and keys[2:] == [0.5, 3.0]
        assert [row for _, row in index.range_scan(0.0, 0.7)] == [2, 4]
        assert dialect.execute("SELECT c1 FROM t WHERE c0 < 0.7") == [{"c1": 3}]

    def test_point_and_prefix_lookups_find_rows_after_a_nan(self):
        dialect = create_dialect("postgresql")
        dialect.execute("CREATE TABLE t (a FLOAT, b INT)")
        dialect.execute("CREATE INDEX i0 ON t (a)")
        dialect.execute(
            "INSERT INTO t (a, b) VALUES "
            + ", ".join(f"({value}.0, {value})" for value in range(1, 9))
        )
        dialect.execute("INSERT INTO t (a, b) VALUES (CAST('nan' AS FLOAT), 0)")
        dialect.execute("INSERT INTO t (a, b) VALUES (9.5, 95)")
        assert dialect.execute("SELECT b FROM t WHERE a = 9.5") == [{"b": 95}]
        assert dialect.execute("SELECT b FROM t WHERE a = 4.0") == [{"b": 4}]
        index = _build([(1.0, 1), (self.NAN, 2), (3.0, 3), (0.5, 4), (3.0, 5)])
        assert index.lookup((0.5, 4)) == [3]
        assert index.lookup((3.0, 5)) == [4]
        assert index.prefix_lookup((0.5,)) == [3]
        assert index.prefix_lookup((3.0,)) == [2, 4]

    @pytest.mark.parametrize(
        "keys",
        [
            [(NAN, 0), (3.0, 1), (1.0, 2), (2.0, 3), (1.0, 4), (0.5, 5)],
            [(1.0, 0), (2.0, 1), (NAN, 2), (0.5, 3), (2.0, 4), (9.5, 5)],
            [(2.0, 0), (NAN, 1), (1.0, 2), (NAN, 3), (0.5, 4), (1.0, 5), (NAN, 6)],
        ],
        ids=["nan-first", "nan-middle", "nan-repeated"],
    )
    def test_lookups_after_a_nan_match_the_inserted_rows(self, keys):
        index = _build(keys)
        assert index._unordered
        for key in {key for key in keys if key[0] == key[0]}:
            expected = [row_id for row_id, stored in enumerate(keys) if stored == key]
            assert sorted(index.lookup(key)) == expected
            expected = [
                row_id for row_id, stored in enumerate(keys) if stored[0] == key[0]
            ]
            assert sorted(index.prefix_lookup(key[:1])) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.one_of(_VALUES, st.just(NAN)), _VALUES), max_size=30),
        st.tuples(_VALUES, _VALUES),
    )
    def test_lookups_match_a_linear_filter(self, keys, probe):
        index = _build(keys)
        for key in keys[:5] + [probe]:
            wrapped = sortable(key)
            expected = [
                row_id for row_id, stored in enumerate(keys) if sortable(stored) == wrapped
            ]
            assert sorted(index.lookup(key)) == expected
            expected = [
                row_id for row_id, stored in enumerate(keys)
                if sortable(stored)[:1] == wrapped[:1]
            ]
            assert sorted(index.prefix_lookup(key[:1])) == expected

    def test_removal_after_a_nan_drops_the_entry(self):
        keys = [(1.0, 0), (2.0, 1), (3.0, 2), (self.NAN, 3), (0.5, 4), (2.5, 5)]
        index = _build(keys)
        index.remove(keys[5], 5)
        index.remove(keys[4], 4)
        index.remove(keys[3], 3)
        assert [row_id for _, row_id in index.ordered_entries()] == [0, 1, 2]
        assert index.lookup((2.5, 5)) == [] and index.prefix_lookup((0.5,)) == []

    def test_unique_index_rejects_a_duplicate_after_a_nan(self):
        index = OrderedIndex(Index("u", "t", ["a"], unique=True))
        for row_id, value in enumerate([1.0, self.NAN, 9.5]):
            index.insert((value,), row_id)
        with pytest.raises(StorageError, match="duplicate key"):
            index.insert((9.5,), 3)
        assert index.lookup((9.5,)) == [2]

    @pytest.mark.parametrize("dbms", ["postgresql", "mysql", "sqlite", "tidb", "sqlserver"])
    def test_sql_point_lookups_after_a_nan(self, dbms):
        dialect = create_dialect(dbms)
        dialect.execute("CREATE TABLE t (a FLOAT, b INT)")
        dialect.execute("CREATE INDEX i0 ON t (a)")
        dialect.execute(
            "INSERT INTO t (a, b) VALUES "
            + ", ".join(f"({value}.0, {value})" for value in range(1, 9))
        )
        dialect.execute("INSERT INTO t (a, b) VALUES (CAST('nan' AS FLOAT), 0)")
        dialect.execute("INSERT INTO t (a, b) VALUES (9.5, 95), (0.5, 5)")
        for value, b in [(9.5, 95), (0.5, 5), (4.0, 4), (8.0, 8)]:
            assert dialect.execute(f"SELECT b FROM t WHERE a = {value}") == [{"b": b}]
        assert dialect.execute("SELECT b FROM t WHERE a = 7.5") == []

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    def test_sql_writes_after_a_nan_keep_the_index_in_step(self, executor):
        dialect = create_dialect("postgresql", executor=executor)
        dialect.execute("CREATE TABLE t (a FLOAT, b INT)")
        dialect.execute("CREATE INDEX i0 ON t (a)")
        dialect.execute(
            "INSERT INTO t (a, b) VALUES (1.0, 1), (2.0, 2), (CAST('nan' AS FLOAT), 0), (9.5, 95)"
        )
        index = dialect.database.index("i0")
        dialect.execute("DELETE FROM t WHERE b = 95")
        assert len(index) == 3
        assert dialect.execute("SELECT b FROM t WHERE a = 9.5") == []
        # A deleted row's entry left behind would point at a missing row id.
        dialect.execute("INSERT INTO t (a, b) VALUES (9.5, 96)")
        assert dialect.execute("SELECT b FROM t WHERE a = 9.5") == [{"b": 96}]
        dialect.execute("UPDATE t SET a = 7.0 WHERE b = 96")
        assert dialect.execute("SELECT b FROM t WHERE a = 9.5") == []
        assert dialect.execute("SELECT b FROM t WHERE a = 7.0") == [{"b": 96}]
        dialect.execute("DELETE FROM t WHERE b = 0")
        assert len(index) == 3
        assert dialect.execute("SELECT COUNT(*) FROM t") == [{"COUNT(*)": 3}]

    def test_clear_makes_the_index_sortable_again(self):
        index = self._index()
        index.clear()
        for row_id, value in enumerate([3, 1, 2]):
            index.insert((value,), row_id)
        assert not index._unordered
        assert [row for _, row in index.range_scan(1, 2)] == [1, 2]


# ---------------------------------------------------------------------------
# Native keys
# ---------------------------------------------------------------------------


def _reference_entries(keys):
    """The index as it was before native keys: ``(sortable(key), key,
    row_id)`` entries kept in order by ``insort``, in insertion order."""
    entries = []
    for row_id, key in enumerate(keys):
        insort(entries, (sortable(key), key, row_id))
    return entries


_NATIVE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.5, math.inf, -math.inf, TestNaN.NAN]),
    st.floats(),  # fresh NaN objects too, which equal nothing
    st.sampled_from(["", "1", "a", "b", "True", "nan"]),
)
_NATIVE_KEYS = st.tuples(_NATIVE_VALUES, _NATIVE_VALUES)


class TestNativeKeys:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_NATIVE_KEYS, max_size=30),
        st.lists(_NATIVE_KEYS, max_size=4),
        _NATIVE_VALUES,
        _NATIVE_VALUES,
        st.booleans(),
        st.booleans(),
    )
    def test_entries_and_lookups_match_a_sortable_reference(
        self, keys, probes, low, high, include_low, include_high
    ):
        index = _build(keys)
        reference = _reference_entries(keys)
        assert list(index.ordered_entries()) == [
            (raw, row_id) for _, raw, row_id in reference
        ]
        for probe in keys[:4] + probes:
            wrapped = sortable(probe)
            assert index.lookup(probe) == [
                row_id for entry, _, row_id in reference if entry == wrapped
            ]
            assert index.prefix_lookup(probe[:1]) == [
                row_id for entry, _, row_id in reference if entry[:1] == wrapped[:1]
            ]
        assert list(index.range_scan(low, high, include_low, include_high)) == list(
            linear_range_scan(
                SimpleNamespace(_entries=reference), low, high, include_low, include_high
            )
        )

    def test_a_nan_in_a_later_component_no_longer_hides_rows(self):
        # The entries are out of order within leading value 1 once (1, NaN)
        # is in, so a bisecting lookup used to miss (1, 0.5).
        index = _build([(1, TestNaN.NAN), (1, 2.0), (1, 0.5), (1, 3.0)])
        assert index.lookup((1, 0.5)) == [2]
        assert sorted(index.prefix_lookup((1,))) == [0, 1, 2, 3]


class TestInListLookups:
    """``c1 IN (…)`` through an index returns each row once, however often
    (or in however many spellings) a value repeats — as stdlib ``sqlite3``."""

    LISTS = ["(1, 1, 1)", "(1, 2, 1)", "(1, 1.0)", "(1, NULL, 1)"]
    ROWS = [(i, i % 7) for i in range(80)]

    @pytest.fixture(scope="class")
    def expected(self):
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t0 (c0 INT, c1 INT)")
        connection.executemany("INSERT INTO t0 VALUES (?, ?)", self.ROWS)
        connection.execute("CREATE INDEX i1 ON t0 (c1)")
        counts = [
            connection.execute(f"SELECT COUNT(*) FROM t0 WHERE c1 IN {items}").fetchone()[0]
            for items in self.LISTS
        ]
        connection.close()
        assert counts == [12, 24, 12, 12]
        return counts

    @pytest.mark.parametrize("executor", ["row", "vectorized"])
    @pytest.mark.parametrize(
        "dbms", ["sqlite", "postgresql", "mysql", "tidb", "sqlserver", "sparksql"]
    )
    def test_counts_match_sqlite3(self, expected, dbms, executor):
        dialect = create_dialect(dbms, executor=executor)
        dialect.execute("CREATE TABLE t0 (c0 INT, c1 INT)")
        dialect.execute(
            "INSERT INTO t0 (c0, c1) VALUES "
            + ", ".join(f"({c0}, {c1})" for c0, c1 in self.ROWS)
        )
        dialect.execute("CREATE INDEX i1 ON t0 (c1)")
        counts = [
            next(iter(dialect.execute(f"SELECT COUNT(*) FROM t0 WHERE c1 IN {items}")[0].values()))
            for items in self.LISTS
        ]
        assert counts == expected
