"""Unit tests for the NumPy-backed column kernels (repro.engine.arrays).

Every kernel is checked against the row oracle's scalar helpers
(``_compare`` / ``_arithmetic`` / ``_to_bool``) element for element, and the
module contract — dtype inference, the 2**53 exactness cap, validity
bitmaps, bail-over-guess — is pinned by targeted cases.  The whole module
skips when numpy is absent; the no-numpy behaviour (constructors return the
list, kernels return ``None``) is asserted via the runtime toggle, which
exercises the identical code path.
"""

import random

import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.engine import arrays
from repro.engine.expressions import _arithmetic, _compare, _to_bool
from repro.storage.table import HeapTable
from statement_matrix import Matrix, kernel_cells, observe_rows

np = pytest.importorskip("numpy")

pytestmark = pytest.mark.skipif(
    not arrays.numpy_enabled(), reason="array kernels disabled in this job"
)


def _column(values):
    column = arrays.make_column(list(values))
    assert isinstance(column, arrays.ArrayColumn), values
    return column


INTS = [3, -7, None, 0, 12, None, -2, 9, 5, -1]
FLOATS = [1.5, -0.25, None, 0.0, 3.75, 2.5, None, -9.0, 0.5, 7.25]


class TestDtypeInference:
    def test_pure_int_column(self):
        column = _column([1, 2, 3])
        assert column.kind == "i"
        assert column.validity is None
        assert column.tolist() == [1, 2, 3]

    def test_int_with_nulls(self):
        column = _column([1, None, 3])
        assert column.kind == "i"
        assert list(column.validity) == [True, False, True]
        assert column.tolist() == [1, None, 3]

    def test_float_with_nulls(self):
        column = _column([1.5, None])
        assert column.kind == "f"
        assert column.tolist() == [1.5, None]

    @pytest.mark.parametrize(
        "values",
        [
            [1, 2.5],  # mixed int/float would silently coerce — refuse
            [True, False],  # bool ordering/arithmetic quirks stay on oracle
            ["a", "b"],
            [1, "a"],
            [None, None],  # no type evidence at all
            [],
            [2 ** 53 + 1, 0],  # beyond the float64-exact range
            [-(2 ** 53) - 1],
            [2 ** 70],
        ],
    )
    def test_untyped_columns_stay_lists(self, values):
        assert arrays.make_column(list(values)) is not None
        assert not isinstance(arrays.make_column(list(values)), arrays.ArrayColumn)

    def test_cap_boundary_is_inclusive(self):
        assert isinstance(
            arrays.make_column([2 ** 53, -(2 ** 53)]), arrays.ArrayColumn
        )

    def test_nan_is_a_value_not_a_null(self):
        column = _column([float("nan"), 1.0])
        assert column.validity is None
        assert column.tolist()[0] != column.tolist()[0]  # NaN survives


class TestSequenceProtocol:
    def test_len_iter_index_and_equality(self):
        column = _column([1, None, 3])
        assert len(column) == 3
        assert list(column) == [1, None, 3]
        assert column[1] is None
        assert column[2] == 3
        assert column == [1, None, 3]

    def test_scalars_are_python_types(self):
        column = _column([1, 2])
        assert type(column[0]) is int
        assert type(_column([1.5])[0]) is float

    def test_slicing_is_a_zero_copy_view(self):
        column = _column(list(range(100)))
        view = column[10:20]
        assert isinstance(view, arrays.ArrayColumn)
        assert view.values.base is not None  # a view, not a copy
        assert view.tolist() == list(range(10, 20))

    def test_take_gathers_positions(self):
        column = _column([10, None, 30, 40])
        assert arrays.take_column(column, [3, 0, 1]).tolist() == [40, 10, None]
        assert arrays.take_column([10, None, 30, 40], [3, 0, 1]) == [40, 10, None]


class TestRuntimeToggle:
    def test_disable_reverts_to_lists_and_bumps_token(self):
        column = _column([1, 2, 3])
        before = arrays.state_token()
        assert arrays.set_numpy_enabled(False) is False
        assert arrays.state_token() != before
        assert arrays.make_column([1, 2, 3]) == [1, 2, 3]
        assert not isinstance(arrays.make_column([1, 2, 3]), arrays.ArrayColumn)
        # Kernels refuse even array inputs while disabled.
        assert arrays.compare("=", column, 1) is None
        assert arrays.arithmetic("+", column, 1) is None
        assert arrays.set_numpy_enabled(True) is True
        assert isinstance(arrays.make_column([1, 2, 3]), arrays.ArrayColumn)

    def test_noop_toggle_keeps_token(self):
        token = arrays.state_token()
        arrays.set_numpy_enabled(arrays.numpy_enabled())
        assert arrays.state_token() == token

    def test_toggle_invalidates_columnar_snapshots(self):
        table = HeapTable(
            TableSchema(
                name="t", columns=[Column(name="a", data_type=DataType.INTEGER)]
            )
        )
        table.insert_many([{"a": i} for i in range(arrays.ARRAY_MIN_ROWS)])
        snapshot = table.column_batch()
        assert isinstance(snapshot.columns["a"], arrays.ArrayColumn)
        arrays.set_numpy_enabled(False)
        downgraded = table.column_batch()
        assert downgraded is not snapshot
        assert downgraded.columns["a"] == list(range(arrays.ARRAY_MIN_ROWS))
        assert not isinstance(downgraded.columns["a"], arrays.ArrayColumn)

    def test_tiny_tables_keep_list_snapshots(self):
        table = HeapTable(
            TableSchema(
                name="t", columns=[Column(name="a", data_type=DataType.INTEGER)]
            )
        )
        table.insert_many([{"a": i} for i in range(arrays.ARRAY_MIN_ROWS - 1)])
        assert not isinstance(
            table.column_batch().columns["a"], arrays.ArrayColumn
        )


class TestCompareKernel:
    OPERATORS = ("=", "<>", "<", "<=", ">", ">=")

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_column_vs_column_matches_oracle(self, operator):
        left, right = _column(INTS), _column(FLOATS)
        result = arrays.compare(operator, left, right)
        expected = [_compare(operator, a, b) for a, b in zip(INTS, FLOATS)]
        assert [None if v is None else bool(v) for v in result] == expected

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("scalar", [4, -2.5, True, float("nan"), None])
    def test_column_vs_scalar_matches_oracle(self, operator, scalar):
        column = _column(INTS)
        result = arrays.compare(operator, column, scalar)
        expected = [_compare(operator, value, scalar) for value in INTS]
        assert [None if v is None else bool(v) for v in result] == expected
        flipped = arrays.compare(operator, scalar, column)
        expected = [_compare(operator, scalar, value) for value in INTS]
        assert [None if v is None else bool(v) for v in flipped] == expected

    def test_huge_int_scalar_exact_against_int_column(self):
        # 2**53 + 1 == float(2**53) after rounding; the int64 kernel must
        # not fall into that trap.
        column = _column([2 ** 53, 123])
        result = arrays.compare("=", column, 2 ** 53 + 1)
        assert list(result) == [False, False]
        assert list(arrays.compare("<", column, 2 ** 53 + 1)) == [True, True]

    def test_huge_int_scalar_bails_against_float_column(self):
        assert arrays.compare("=", _column([1.0, 2.0]), 2 ** 53 + 1) is None

    def test_int64_overflow_scalar_bails(self):
        assert arrays.compare("<", _column([1, 2]), 2 ** 63) is None

    def test_string_operand_bails(self):
        assert arrays.compare("=", _column([1, 2]), "x") is None


class TestArithmeticKernel:
    OPERATORS = ("+", "-", "*", "/", "%")

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_int_columns_match_oracle(self, operator):
        left, right = _column(INTS), _column([2, 0, 5, -3, None, 4, 1, 0, -6, 7])
        result = arrays.arithmetic(operator, left, right)
        assert result is not None
        expected = [
            _arithmetic(operator, a, b)
            for a, b in zip(left.tolist(), right.tolist())
        ]
        assert list(result) == expected

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_float_columns_match_oracle(self, operator):
        left, right = _column(FLOATS), _column([2.0, 0.0, 1.5, -0.5, None, 4.0, 1.0, 0.0, -2.0, 8.0])
        result = arrays.arithmetic(operator, left, right)
        assert result is not None
        assert list(result) == [
            _arithmetic(operator, a, b)
            for a, b in zip(left.tolist(), right.tolist())
        ]

    def test_division_by_zero_scalar_is_all_null(self):
        for zero in (0, 0.0):
            for operator in ("/", "%"):
                result = arrays.arithmetic(operator, _column([1, 2]), zero)
                assert list(result) == [None, None]

    def test_modulo_matches_python_sign_convention(self):
        left, right = _column([7, -7, 7, -7]), _column([3, 3, -3, -3])
        assert list(arrays.arithmetic("%", left, right)) == [1, 2, -2, -1]

    def test_overflowing_sum_is_rematerialized_exactly(self):
        big = 2 ** 53 - 1
        result = arrays.arithmetic("+", _column([big, 1, None]), _column([5, 1, 2]))
        assert not isinstance(result, arrays.ArrayColumn)  # back to a list
        assert result == [big + 5, 2, None]

    def test_multiplication_overflow_bails_pre_kernel(self):
        column = _column([2 ** 40])
        assert arrays.arithmetic("*", column, column) is None

    def test_concatenation_bails(self):
        assert arrays.arithmetic("||", _column([1]), _column([2])) is None


class TestKleeneKernels:
    CASES = [True, False, None]

    def _bool_column(self, values):
        # Bool columns arrive as comparison outputs, never via make_column.
        return arrays.ArrayColumn(
            np.array([bool(v) for v in values], dtype=bool),
            np.array([v is not None for v in values], dtype=bool),
        )

    def test_and_or_truth_tables(self):
        lefts = [a for a in self.CASES for _ in self.CASES]
        rights = self.CASES * 3
        left, right = self._bool_column(lefts), self._bool_column(rights)

        def oracle(op, a, b):
            known_a, known_b = _to_bool(a), _to_bool(b)
            if op == "AND":
                if known_a is False or known_b is False:
                    return False
                if known_a is None or known_b is None:
                    return None
                return True
            if known_a is True or known_b is True:
                return True
            if known_a is None or known_b is None:
                return None
            return False

        assert [
            None if v is None else bool(v) for v in arrays.kleene_and(left, right)
        ] == [oracle("AND", a, b) for a, b in zip(lefts, rights)]
        assert [
            None if v is None else bool(v) for v in arrays.kleene_or(left, right)
        ] == [oracle("OR", a, b) for a, b in zip(lefts, rights)]

    def test_not_flips_known_keeps_unknown(self):
        column = self._bool_column(self.CASES)
        assert [
            None if v is None else bool(v) for v in arrays.kleene_not(column)
        ] == [False, True, None]

    def test_numeric_truth_matches_to_bool(self):
        column = _column([0, 3, None, -1])
        assert list(arrays.selection_vector(column)) == [
            i for i, v in enumerate(column.tolist()) if _to_bool(v)
        ]

    def test_nan_is_truthy_like_python(self):
        column = _column([float("nan"), 0.0, 1.0])
        assert list(arrays.selection_vector(column)) == [0, 2]

    def test_is_null_is_two_valued(self):
        column = _column([1, None, 3])
        assert list(arrays.is_null(column, negated=False)) == [False, True, False]
        assert list(arrays.is_null(column, negated=True)) == [True, False, True]


class TestSortOrder:
    def test_nulls_first_and_desc_flip(self):
        column = _column([3, None, 1, None, 2])
        ascending = arrays.sort_order([(column, False)])
        assert list(ascending) == [1, 3, 2, 4, 0]  # NULLs first, then values
        descending = arrays.sort_order([(column, True)])
        assert list(descending) == [0, 4, 2, 1, 3]  # values desc, NULLs last

    def test_ties_break_by_position(self):
        column = _column([1, 1, 0, 1])
        assert list(arrays.sort_order([(column, False)])) == [2, 0, 1, 3]
        assert list(arrays.sort_order([(column, True)])) == [0, 1, 3, 2]

    def test_multi_key_priority(self):
        first = _column([1, 1, 0, 0])
        second = _column([5, 3, 9, 7])
        assert list(arrays.sort_order([(first, False), (second, True)])) == [
            2,
            3,
            0,
            1,
        ]

    def test_nan_bails(self):
        assert arrays.sort_order([(_column([1.0, float("nan")]), False)]) is None

    def test_non_array_key_bails(self):
        assert arrays.sort_order([([1, 2], False)]) is None


class TestGroupedAggregate:
    def _oracle(self, keys, values, name):
        groups = {}
        for key, value in zip(keys, values):
            groups.setdefault(key, []).append(value)
        output = []
        for key, members in groups.items():  # insertion == first appearance
            valid = [v for v in members if v is not None]
            if name == "COUNT*":
                output.append(len(members))
            elif name == "COUNT":
                output.append(len(valid))
            elif not valid:
                output.append(None)
            elif name == "SUM":
                output.append(sum(valid))
            elif name == "AVG":
                output.append(sum(valid) / len(valid))
            elif name == "MIN":
                output.append(min(valid))
            else:
                output.append(max(valid))
        return output

    @staticmethod
    def _reduce(name, keys, column):
        """Factorise *keys*, lay the groups out, reduce one aggregate."""
        codes, count, firsts = arrays.group_codes(keys, len(keys[0]))
        order, bounds = arrays.group_order(codes, count)
        return count, firsts.tolist(), arrays.reduce_groups(name, column, order, bounds)

    @pytest.mark.parametrize("name", ["COUNT*", "COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_matches_insertion_ordered_oracle(self, name):
        rng = random.Random(7)
        keys = [rng.randrange(5) for _ in range(200)]
        values = [rng.randrange(-50, 50) if rng.random() > 0.2 else None for _ in keys]
        count, firsts, results = self._reduce(
            "COUNT" if name == "COUNT*" else name,
            [_column(keys)],
            None if name == "COUNT*" else _column(values),
        )
        assert count == len(set(keys))
        assert firsts == sorted(firsts)  # first-appearance order
        assert [keys[first] for first in firsts] == list(dict.fromkeys(keys))
        assert results == self._oracle(keys, values, name)

    def test_global_aggregate_without_keys(self):
        column = _column([5, None, 1])
        codes, count, firsts = arrays.group_codes([], 3)
        assert (codes.tolist(), count, firsts.tolist()) == ([0, 0, 0], 1, [0])
        order, bounds = arrays.group_order(codes, count)
        assert arrays.reduce_groups("SUM", column, order, bounds) == [6]
        assert arrays.reduce_groups("COUNT", None, order, bounds) == [3]

    def test_avg_is_exact_python_division(self):
        _, _, results = self._reduce("AVG", [_column([0, 0])], _column([1, 2]))
        assert results == [1.5]

    def test_nan_argument_bails(self):
        keys = [_column([0, 1])]
        assert self._reduce("MIN", keys, _column([1.0, float("nan")]))[2] is None

    def test_sum_overflow_bails(self):
        keys = [_column([0] * 600)]
        assert self._reduce("SUM", keys, _column([2 ** 53] * 600))[2] is None

    def test_inexact_reductions_bail_per_aggregate(self):
        # The choice is per aggregate: a float SUM (order-dependent) and a
        # list argument bail, while COUNT over the same groups stays exact.
        keys = [_column([0, 1, 0])]
        floats = _column([0.1, 0.2, 0.3])
        assert self._reduce("SUM", keys, floats)[2] is None
        assert self._reduce("AVG", keys, floats)[2] is None
        assert self._reduce("MIN", keys, floats)[2] == [0.1, 0.2]
        assert self._reduce("COUNT", keys, floats)[2] == [2, 1]
        codes, count, _ = arrays.group_codes(keys, 3)
        order, bounds = arrays.group_order(codes, count)
        assert arrays.reduce_groups("MAX", ["a", "b", "c"], order, bounds) is None
        assert arrays.reduce_groups("GROUP_CONCAT", floats, order, bounds) is None

    def test_ineligible_keys_leave_factorisation_to_the_caller(self):
        assert arrays.group_codes([["a", "b"]], 2) is None  # not a typed array
        assert arrays.group_codes([_column([1, None])], 2) is None  # NULL key
        assert arrays.group_codes([_column([1.0, float("nan")])], 2) is None

    @pytest.mark.parametrize("enabled", [True, False], ids=["numpy", "list"])
    def test_group_order_is_stable_in_both_representations(self, enabled):
        arrays.set_numpy_enabled(enabled)
        order, bounds = arrays.group_order([0, 1, 0, 2, 1, 0], 3)
        assert arrays.as_list(order) == [0, 2, 5, 1, 4, 3]
        assert bounds == [0, 3, 5, 6]


class TestTakePadded:
    def test_pad_positions_read_null(self):
        assert arrays.take_padded(["a", "b"], [1, arrays.PAD, 0]) == ["b", None, "a"]
        taken = arrays.take_padded(_column([5, None, 7]), [2, arrays.PAD, 1, 0])
        assert isinstance(taken, arrays.ArrayColumn)
        assert taken.tolist() == [7, None, None, 5]

    def test_take_column_accepts_array_positions_over_lists(self):
        assert arrays.take_column(["a", "b", "c"], np.array([2, 0])) == ["c", "a"]


class TestConcatColumns:
    def test_same_dtype_arrays_concatenate(self):
        merged = arrays.concat_columns([_column([1, None]), _column([3])])
        assert isinstance(merged, arrays.ArrayColumn)
        assert merged.tolist() == [1, None, 3]

    def test_mixed_representation_degrades_to_list(self):
        merged = arrays.concat_columns([_column([1, 2]), ["a"]])
        assert merged == [1, 2, "a"]

    def test_single_part_is_returned_unchanged(self):
        column = _column([1, 2])
        assert arrays.concat_columns([column]) is column


class TestRandomizedOracleParity:
    """Randomized kernels-vs-oracle sweep over mixed null densities."""

    def _random_values(self, rng, kind, length, null_rate):
        output = []
        for _ in range(length):
            if rng.random() < null_rate:
                output.append(None)
            elif kind is int:
                output.append(rng.randrange(-10 ** 6, 10 ** 6))
            else:
                output.append(round(rng.uniform(-1000, 1000), 3))
        return output

    @pytest.mark.parametrize("seed", range(5))
    def test_compare_and_arithmetic(self, seed):
        rng = random.Random(seed)
        for kind in (int, float):
            for null_rate in (0.0, 0.3, 0.9):
                raw_left = self._random_values(rng, kind, 64, null_rate)
                raw_right = self._random_values(rng, kind, 64, null_rate)
                left = arrays.make_column(list(raw_left))
                right = arrays.make_column(list(raw_right))
                if not isinstance(left, arrays.ArrayColumn) or not isinstance(
                    right, arrays.ArrayColumn
                ):
                    continue  # all-NULL draw: untyped by contract
                for operator in ("=", "<", ">="):
                    result = arrays.compare(operator, left, right)
                    assert [
                        None if v is None else bool(v) for v in result
                    ] == [
                        _compare(operator, a, b)
                        for a, b in zip(raw_left, raw_right)
                    ]
                for operator in ("+", "*", "/", "%"):
                    result = arrays.arithmetic(operator, left, right)
                    if result is None:
                        continue  # overflow pre-guard bailed; oracle path covers
                    assert list(result) == [
                        _arithmetic(operator, a, b)
                        for a, b in zip(raw_left, raw_right)
                    ]


class TestHashJoinProbeParity:
    """The hash-join probe over array columns vs the row oracle.

    These tests pin the probe's semantics on typed columns, whichever way
    the keys are computed (``arrays.join_probe`` or the column-at-a-time
    ``_join_keys`` pass): NULL keys never match (and LEFT-pad exactly once),
    normalised keys collide across int/float representations but the exact
    join condition re-check decides, and the 2**53 exactness boundary —
    where one side is a typed int64 array and the other bailed to a plain
    list — keeps oracle parity.
    """

    ROWS = 2 * arrays.ARRAY_MIN_ROWS

    @staticmethod
    def _matrix(left_rows, right_rows, right_key="INT"):
        def load(dialect):
            dialect.database.insert_rows("lt", left_rows)
            dialect.database.insert_rows("rt", right_rows)
            dialect.analyze_tables()

        ddl = ["CREATE TABLE lt (k INT, v INT)", f"CREATE TABLE rt (k {right_key}, w INT)"]
        return Matrix(kernel_cells("row", "vectorized", "parallel"), ddl, load)

    @staticmethod
    def _join_rows(matrix, join="JOIN"):
        """The oracle's rows of the join, once every engine agreed on them."""
        query = f"SELECT lt.v, rt.w FROM lt {join} rt ON lt.k = rt.k ORDER BY lt.v, rt.w"
        results = matrix.each(lambda dialect: dialect.execute(query))
        matrix.agree(query, [observe_rows(lambda rows=rows: rows) for rows in results])
        return results[0]

    @staticmethod
    def _snapshot(matrix, table):
        arrays.set_numpy_enabled(True)
        return matrix.dialects[0].database.table(table).column_batch()

    def test_null_keys_never_match(self):
        left = [
            {"k": i % 11 if i % 5 else None, "v": i} for i in range(self.ROWS)
        ]
        right = [
            {"k": i % 7 if i % 3 else None, "w": i} for i in range(self.ROWS)
        ]
        matrix = self._matrix(left, right)
        # The snapshot columns really are typed arrays with validity bitmaps.
        snapshot = self._snapshot(matrix, "lt")
        assert isinstance(snapshot.columns["k"], arrays.ArrayColumn)
        assert snapshot.columns["k"].has_nulls()
        rows = self._join_rows(matrix)
        # No NULL key on either side ever joins.
        null_left = {row["v"] for row in left if row["k"] is None}
        assert not null_left.intersection(row["lt.v"] for row in rows)

    def test_left_join_pads_null_keys_once(self):
        left = [
            {"k": None if i % 4 == 0 else i % 9, "v": i}
            for i in range(self.ROWS)
        ]
        right = [{"k": i % 9, "w": i} for i in range(self.ROWS)]
        rows = self._join_rows(self._matrix(left, right), "LEFT JOIN")
        # Each NULL-key left row appears exactly once, padded with NULL.
        for row in left:
            if row["k"] is None:
                padded = [r for r in rows if r["lt.v"] == row["v"]]
                assert len(padded) == 1 and padded[0]["rt.w"] is None

    def test_2pow53_boundary_cross_representation(self):
        # Left k stays a typed int64 array (all |values| <= 2**53); right k
        # bails to a plain list (it holds 2**53 + 1, outside the exactness
        # cap).  The probe crosses representations; normalised float keys
        # collide at the boundary (2**53 == float(2**53 + 1)) but the exact
        # condition re-check must keep 2**53+1 out of 2**53's matches —
        # identically to the row oracle.
        boundary = 2 ** 53
        left = [{"k": i, "v": i} for i in range(self.ROWS - 2)]
        left += [{"k": boundary, "v": 10_001}, {"k": -boundary, "v": 10_002}]
        right = [{"k": i, "w": i} for i in range(self.ROWS - 3)]
        right += [
            {"k": boundary, "w": 20_001},
            {"k": boundary + 1, "w": 20_002},
            {"k": -boundary, "w": 20_003},
        ]
        matrix = self._matrix(left, right)
        assert isinstance(self._snapshot(matrix, "lt").columns["k"], arrays.ArrayColumn)
        assert not isinstance(self._snapshot(matrix, "rt").columns["k"], arrays.ArrayColumn)
        rows = self._join_rows(matrix)
        boundary_matches = [r for r in rows if r["lt.v"] == 10_001]
        assert [r["rt.w"] for r in boundary_matches] == [20_001]
        assert [r["rt.w"] for r in rows if r["lt.v"] == 10_002] == [20_003]

    def test_int_float_keys_share_equality_classes(self):
        # 1 joins 1.0: numeric keys normalise into one equality class on
        # both executors (the row oracle's _hash_key contract).
        left = [{"k": i % 10, "v": i} for i in range(self.ROWS)]
        right_rows = [{"k": float(i % 10), "w": i} for i in range(self.ROWS)]
        rows = self._join_rows(self._matrix(left, right_rows, right_key="REAL"))
        from collections import Counter

        left_counts = Counter(row["k"] for row in left)
        right_counts = Counter(int(row["k"]) for row in right_rows)
        assert len(rows) == sum(
            count * right_counts[key] for key, count in left_counts.items()
        )

    def test_probe_runs_under_a_hash_join_plan(self):
        # Guard the guard: these parity tests only mean something while the
        # planner actually picks a hash join for this shape.
        left = [{"k": i % 11, "v": i} for i in range(self.ROWS)]
        right = [{"k": i % 7, "w": i} for i in range(self.ROWS)]
        matrix = self._matrix(left, right)
        for cell, plan in zip(matrix.cells, matrix.each(
            lambda dialect: dialect.explain("SELECT lt.v, rt.w FROM lt JOIN rt ON lt.k = rt.k").text
        )):
            assert "Hash Join" in plan, (cell, plan)
