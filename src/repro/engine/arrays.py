"""Optional NumPy-backed column kernels with validity bitmaps.

The vectorized executor's batches hold plain Python lists unless this module
upgrades them: :func:`make_column` turns a value list into an
:class:`ArrayColumn` — a typed ``numpy`` array plus a validity bitmap for SQL
three-valued logic — when, and only when, exactness allows.  The kernels
below (comparisons, arithmetic, Kleene AND/OR/NOT, IS NULL, sort orders,
grouped reductions) then operate on whole columns per ufunc call.

numpy is a *soft* dependency: when it is absent (or disabled via the
``REPRO_DISABLE_NUMPY`` environment variable or :func:`set_numpy_enabled`),
every constructor returns the original list and every kernel returns
``None``, so callers fall back to the pure-Python per-element paths and the
engine stays fully functional.

Exactness contract (the fallback rule decides, never numpy coercion):

* **dtype inference** — a column is typed only when its Python type set is
  exactly ``{int}`` or ``{float}`` (each optionally with ``NoneType``).
  Mixed int/float, bool, string, and NULL-only columns stay plain lists.
* **2**53 cap** — ``int64`` arrays never hold ``|v| > 2**53``; wider
  integers stay (or are re-materialized as) lists, so every
  ``int64 <-> float64`` crossing is exact and SQL ``=`` equality classes
  are preserved.  Arithmetic results are re-checked after every kernel.
* **validity bitmap** — a parallel bool array, ``True`` = valid;
  ``None`` means all-valid.  Kernels propagate validity per Kleene logic;
  values at invalid positions are unspecified but always bounded.
* **bail over guess** — any operand or result a kernel cannot represent
  with oracle semantics (NaN in a sort or MIN/MAX, division overflow,
  huge literals, string operands) makes the kernel return ``None``; the
  caller's per-element loop is the single source of truth.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via both CI jobs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Largest magnitude an ``int64`` column may hold: beyond ``2**53`` the
#: implicit float64 crossings (comparisons, sort keys) stop being exact.
MAX_EXACT_INT = 2 ** 53

#: Intermediate integer reductions stay below this so ``int64`` never wraps.
_SAFE_INT_BOUND = 2 ** 62

#: Tables smaller than this keep plain-list snapshots: array construction
#: costs more than it saves on tiny inputs.  Re-tune it against the
#: ``campaign`` (1-60 row generator tables) and ``tpch_exec`` workloads of
#: ``benchmarks/e2e/run.py``.
ARRAY_MIN_ROWS = 64

_BAIL = object()  # internal sentinel: operand not vectorizable

_enabled = _np is not None and os.environ.get("REPRO_DISABLE_NUMPY", "") in ("", "0")
_generation = 0


def numpy_available() -> bool:
    """Whether numpy could be imported at all."""
    return _np is not None


def numpy_enabled() -> bool:
    """Whether the array kernels are active (available and not disabled)."""
    return _enabled


def set_numpy_enabled(enabled: bool) -> bool:
    """Toggle the array kernels at runtime; returns the effective state.

    Enabling is a no-op when numpy is not importable.  Every effective
    toggle bumps the :func:`state_token`, which invalidates cached columnar
    snapshots built under the previous state.
    """
    global _enabled, _generation
    target = bool(enabled) and _np is not None
    if target != _enabled:
        _enabled = target
        _generation += 1
    return _enabled


def state_token() -> int:
    """An opaque token that changes whenever the kernels are toggled."""
    return _generation


if _np is not None:
    _COMPARE_OPS = {
        "=": _np.equal,
        "<>": _np.not_equal,
        "<": _np.less,
        "<=": _np.less_equal,
        ">": _np.greater,
        ">=": _np.greater_equal,
    }
else:  # pragma: no cover
    _COMPARE_OPS = {}


class ArrayColumn:
    """A typed column: ``values`` ndarray plus an optional validity bitmap.

    Quacks like the value list it replaces — ``len``, iteration, indexing,
    slicing, and ``==`` against lists all yield Python scalars with ``None``
    at invalid positions — so every per-element fallback path in the engine
    works unchanged; kernels reach ``values``/``validity`` directly.
    Columns are immutable by convention: operators build new columns.
    """

    __slots__ = ("values", "validity", "_list")

    def __init__(self, values, validity=None) -> None:
        self.values = values
        self.validity = validity
        self._list: Optional[List[object]] = None

    @property
    def kind(self) -> str:
        """The dtype kind: ``'i'`` (int64), ``'f'`` (float64), ``'b'`` (bool)."""
        return self.values.dtype.kind

    def has_nulls(self) -> bool:
        """Whether any position is NULL."""
        return self.validity is not None and not bool(self.validity.all())

    def tolist(self) -> List[object]:
        """The column as a plain list of Python scalars (cached)."""
        cached = self._list
        if cached is None:
            cached = self.values.tolist()
            if self.validity is not None:
                for position in _np.flatnonzero(~self.validity).tolist():
                    cached[position] = None
            self._list = cached
        return cached

    def take(self, positions) -> "ArrayColumn":
        """A new column holding the values at *positions* (in that order)."""
        index = _np.asarray(positions, dtype=_np.intp)
        validity = (
            self.validity.take(index) if self.validity is not None else None
        )
        return ArrayColumn(self.values.take(index), validity)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            validity = self.validity[item] if self.validity is not None else None
            return ArrayColumn(self.values[item], validity)
        return self.tolist()[item]

    def __eq__(self, other: object):
        if isinstance(other, ArrayColumn):
            return self.tolist() == other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __getstate__(self):
        # Columns cross process boundaries (morsel workers, sharded
        # campaigns); ship only the arrays — the materialized-list cache is
        # derived state and may be large.
        return (self.values, self.validity)

    def __setstate__(self, state) -> None:
        self.values, self.validity = state
        self._list = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayColumn(dtype={self.values.dtype}, length={len(self.values)}, "
            f"nulls={self.has_nulls()})"
        )


def make_column(values: List[object]):
    """Return an :class:`ArrayColumn` for *values* when exactness allows.

    Anything outside the typed domain — mixed types, bool, strings,
    integers beyond ``2**53``, all-NULL columns, kernels disabled — returns
    *values* unchanged (the dtype-inference rule of the module contract).
    """
    if not _enabled or not values:
        return values
    kinds = set(map(type, values))
    has_null = type(None) in kinds
    kinds.discard(type(None))
    # ``type()`` keeps bool apart from int, so pure-bool columns stay lists
    # (their arithmetic/ordering quirks remain on the oracle path).
    if kinds == {int}:
        filled = [0 if value is None else value for value in values] if has_null else values
        if max(filled) > MAX_EXACT_INT or min(filled) < -MAX_EXACT_INT:
            return values
        array = _np.array(filled, dtype=_np.int64)
    elif kinds == {float}:
        filled = [0.0 if value is None else value for value in values] if has_null else values
        array = _np.array(filled, dtype=_np.float64)
    else:
        return values
    validity = None
    if has_null:
        validity = _np.fromiter(
            (value is not None for value in values), dtype=bool, count=len(values)
        )
    return ArrayColumn(array, validity)


# ---------------------------------------------------------------------------
# Scalar operand preparation
# ---------------------------------------------------------------------------


def _scalar_for_compare(value, other: Optional[ArrayColumn]):
    if isinstance(value, bool):
        return int(value)  # the oracle compares bool as int for ordering ops
    if isinstance(value, int):
        if -MAX_EXACT_INT <= value <= MAX_EXACT_INT:
            return value
        # Wider ints stay exact only against pure-int64 arrays (no float
        # promotion); anything else falls back to Python's exact compare.
        if other is not None and other.kind == "i" and -(2 ** 63) < value < 2 ** 63:
            return value
        return _BAIL
    if isinstance(value, float):
        return value  # NaN included: ufunc comparisons yield False, like Python
    return _BAIL


def _scalar_for_arithmetic(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value if -MAX_EXACT_INT <= value <= MAX_EXACT_INT else _BAIL
    if isinstance(value, float):
        return value
    return _BAIL


def _and_validity(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _all_null(length: int) -> ArrayColumn:
    return ArrayColumn(
        _np.zeros(length, dtype=bool), _np.zeros(length, dtype=bool)
    )


# ---------------------------------------------------------------------------
# Comparison / arithmetic kernels
# ---------------------------------------------------------------------------


def compare(operator: str, left, right):
    """Vectorized ``_compare``: an all-bool column, or ``None`` to fall back.

    Operands are :class:`ArrayColumn` or scalar constants; at least one
    column is required.  A ``None`` constant yields an all-NULL result.
    """
    if not _enabled:
        return None
    left_column = isinstance(left, ArrayColumn)
    right_column = isinstance(right, ArrayColumn)
    if not (left_column or right_column):
        return None
    if (not left_column and isinstance(left, (list, tuple))) or (
        not right_column and isinstance(right, (list, tuple))
    ):
        return None
    length = len(left) if left_column else len(right)
    if (not left_column and left is None) or (not right_column and right is None):
        return _all_null(length)
    lv = left.values if left_column else _scalar_for_compare(left, right if right_column else None)
    rv = right.values if right_column else _scalar_for_compare(right, left if left_column else None)
    if lv is _BAIL or rv is _BAIL:
        return None
    with _np.errstate(invalid="ignore"):
        values = _COMPARE_OPS[operator](lv, rv)
    validity = _and_validity(
        left.validity if left_column else None,
        right.validity if right_column else None,
    )
    return ArrayColumn(values, validity)


def _bounded_int_result(values, validity):
    """Re-apply the 2**53 cap to an integer kernel result.

    Invalid positions are zeroed (keeping every stored int64 bounded); a
    result that exceeds the cap is materialized back to a plain list so
    downstream float crossings can never round it.
    """
    if validity is not None:
        values = _np.where(validity, values, 0)
    if values.size and int(_np.abs(values).max()) > MAX_EXACT_INT:
        output = values.tolist()
        if validity is not None:
            for position in _np.flatnonzero(~validity).tolist():
                output[position] = None
        return output
    return ArrayColumn(values, validity)


def arithmetic(operator: str, left, right):
    """Vectorized ``_arithmetic``: a column, a plain list (re-materialized
    for exactness), or ``None`` to fall back.
    """
    if not _enabled or operator == "||":
        return None
    left_column = isinstance(left, ArrayColumn)
    right_column = isinstance(right, ArrayColumn)
    if not (left_column or right_column):
        return None
    if (not left_column and isinstance(left, (list, tuple))) or (
        not right_column and isinstance(right, (list, tuple))
    ):
        return None
    length = len(left) if left_column else len(right)
    if (not left_column and left is None) or (not right_column and right is None):
        return _all_null(length)

    def prepare(operand, is_column):
        if not is_column:
            return _scalar_for_arithmetic(operand), None, isinstance(operand, (bool, int))
        values = operand.values
        if values.dtype.kind == "b":
            # numpy bool "+" is logical-or; the oracle treats bool as int.
            values = values.astype(_np.int64)
        return values, operand.validity, operand.kind in ("i", "b")

    lv, lvalid, left_integer = prepare(left, left_column)
    rv, rvalid, right_integer = prepare(right, right_column)
    if lv is _BAIL or rv is _BAIL:
        return None
    validity = _and_validity(lvalid, rvalid)
    integer_result = left_integer and right_integer

    if operator in ("+", "-"):
        # |operand| <= 2**53 on both sides, so int64 cannot wrap; the cap
        # is re-checked on the result.
        with _np.errstate(over="ignore", invalid="ignore"):
            values = _np.add(lv, rv) if operator == "+" else _np.subtract(lv, rv)
        if integer_result:
            return _bounded_int_result(values, validity)
        return ArrayColumn(values, validity)
    if operator == "*":
        if integer_result:
            left_peak = int(_np.abs(lv).max()) if left_column else abs(lv)
            right_peak = int(_np.abs(rv).max()) if right_column else abs(rv)
            if left_peak * right_peak > _SAFE_INT_BOUND:
                return None  # products may exceed int64: Python stays exact
            return _bounded_int_result(_np.multiply(lv, rv), validity)
        with _np.errstate(over="ignore", invalid="ignore"):
            return ArrayColumn(_np.multiply(lv, rv), validity)
    if operator in ("/", "%"):
        if right_column or not isinstance(rv, (int, float)):
            zero = rv == 0
            if zero is not False and getattr(zero, "any", None) and zero.any():
                if validity is None:
                    validity = ~zero
                else:
                    validity = validity & ~zero
                rv = _np.where(zero, 1, rv)
        elif rv == 0:
            return _all_null(length)
        ufunc = _np.true_divide if operator == "/" else _np.remainder
        with _np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = ufunc(lv, rv)
        # Integer % stays integral and |a % b| < |b| <= 2**53: no re-check.
        return ArrayColumn(values, validity)
    return None


def negate(column):
    """Vectorized unary minus, or ``None`` to fall back."""
    if not _enabled or not isinstance(column, ArrayColumn):
        return None
    if column.kind == "b":
        return None  # the oracle yields -1/0 ints; rare enough to fall back
    return ArrayColumn(-column.values, column.validity)


# ---------------------------------------------------------------------------
# Three-valued logic kernels
# ---------------------------------------------------------------------------


def _truth(column):
    """Per-element ``_to_bool``: ``(truth, validity)`` arrays, or ``None``."""
    if not isinstance(column, ArrayColumn):
        return None
    values = column.values
    if values.dtype.kind == "b":
        return values, column.validity
    with _np.errstate(invalid="ignore"):
        return values != 0, column.validity  # NaN != 0 is True, like Python


def _known_truth(column):
    prepared = _truth(column)
    if prepared is None:
        return None
    truth, validity = prepared
    if validity is None:
        return truth, ~truth
    return truth & validity, ~truth & validity


def kleene_and(left, right):
    """Kleene AND over two columns, or ``None`` to fall back."""
    if not _enabled:
        return None
    prepared_left = _known_truth(left)
    prepared_right = _known_truth(right)
    if prepared_left is None or prepared_right is None:
        return None
    left_true, left_false = prepared_left
    right_true, right_false = prepared_right
    false_ = left_false | right_false
    true_ = left_true & right_true
    validity = false_ | true_
    return ArrayColumn(true_, None if validity.all() else validity)


def kleene_or(left, right):
    """Kleene OR over two columns, or ``None`` to fall back."""
    if not _enabled:
        return None
    prepared_left = _known_truth(left)
    prepared_right = _known_truth(right)
    if prepared_left is None or prepared_right is None:
        return None
    left_true, left_false = prepared_left
    right_true, right_false = prepared_right
    true_ = left_true | right_true
    false_ = left_false & right_false
    validity = false_ | true_
    return ArrayColumn(true_, None if validity.all() else validity)


def kleene_not(column):
    """Kleene NOT over a column, or ``None`` to fall back."""
    if not _enabled:
        return None
    prepared = _truth(column)
    if prepared is None:
        return None
    truth, validity = prepared
    return ArrayColumn(~truth, validity)


def is_null(column, negated: bool):
    """``IS [NOT] NULL`` over a column (always two-valued), or ``None``."""
    if not _enabled or not isinstance(column, ArrayColumn):
        return None
    if column.validity is None:
        return ArrayColumn(_np.full(len(column), bool(negated), dtype=bool), None)
    values = column.validity if negated else ~column.validity
    return ArrayColumn(values, None)


def selection_vector(result):
    """Positions whose three-valued truth is True, or ``None`` to fall back.

    Matches ``compile_predicate_batch``: ``False`` and NULL filter alike.
    """
    if not isinstance(result, ArrayColumn):
        return None
    truth, validity = _truth(result)
    mask = truth if validity is None else truth & validity
    return _np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Hash-join probe
# ---------------------------------------------------------------------------


def join_probe(left, right):
    """Vectorized single-key equi-join probe, or ``None`` to fall back.

    Returns ``(candidate_left, candidate_right, starts)`` — the candidate
    pair lists in the exact order the per-row probe loop produces them:
    left-major, and within one left row the matching right positions
    ascending (the build table's bucket order).  ``starts`` has
    ``len(left) + 1`` entries; row *i*'s candidates live at
    ``[starts[i], starts[i+1])``.

    Only ``int64``/``float64`` key columns qualify: their SQL ``=``
    equality classes equal float64 equality exactly (``|int| <= 2**53`` by
    the module contract, matching ``_normalise_value``'s ``("n", float(v))``
    key).  Bool columns, NaN keys, and plain lists bail to the per-row
    probe.  NULL keys on either side never match.
    """
    if not _enabled:
        return None
    # Key columns below ARRAY_MIN_ROWS (or sliced out of list batches) are
    # plain lists; converting one here is O(n) — cheaper than the per-row
    # probe loop it replaces — and make_column's dtype rules still decide.
    if isinstance(left, list):
        left = make_column(left)
    if isinstance(right, list):
        right = make_column(right)
    if not isinstance(left, ArrayColumn) or not isinstance(right, ArrayColumn):
        return None
    if left.kind not in ("i", "f") or right.kind not in ("i", "f"):
        return None
    left_values = left.values.astype(_np.float64) if left.kind == "i" else left.values
    right_values = right.values.astype(_np.float64) if right.kind == "i" else right.values
    if left.kind == "f" and _np.isnan(left_values).any():
        return None  # NaN has no stable _normalise_value equality class
    if right.kind == "f" and _np.isnan(right_values).any():
        return None

    if right.validity is not None:
        right_positions = _np.flatnonzero(right.validity)
        right_keys = right_values[right_positions]
    else:
        right_positions = _np.arange(len(right_values), dtype=_np.intp)
        right_keys = right_values
    # Stable sort: equal keys keep ascending right positions, so each
    # bucket enumerates in exactly the build dict's append order.
    order = _np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    sorted_positions = right_positions[order]

    lo = _np.searchsorted(sorted_keys, left_values, side="left")
    hi = _np.searchsorted(sorted_keys, left_values, side="right")
    counts = hi - lo
    if left.validity is not None:
        counts = _np.where(left.validity, counts, 0)
    length = len(left_values)
    starts = _np.zeros(length + 1, dtype=_np.int64)
    _np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    candidate_left = _np.repeat(_np.arange(length, dtype=_np.intp), counts)
    if total:
        offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(starts[:-1], counts)
        candidate_right = sorted_positions[_np.repeat(lo, counts) + offsets]
    else:
        candidate_right = _np.empty(0, dtype=_np.intp)
    return candidate_left, candidate_right, starts


# ---------------------------------------------------------------------------
# Batch plumbing: gather / concat
# ---------------------------------------------------------------------------


#: The position :func:`take_padded` reads as "no row here: emit NULL".
PAD = -1


def as_list(positions) -> List[int]:
    """A position vector (list or ndarray) as a plain list of ints."""
    return positions if isinstance(positions, list) else positions.tolist()


def take_column(column, positions):
    """Gather *positions* out of a column (array take or list comprehension)."""
    if isinstance(column, ArrayColumn):
        return column.take(positions)
    return [column[position] for position in as_list(positions)]


def take_padded(column, positions: List[int]):
    """:func:`take_column` where a :data:`PAD` position yields NULL (the
    outer-join pad); *column* is non-empty."""
    if not isinstance(column, ArrayColumn):
        return [None if position < 0 else column[position] for position in positions]
    index = _np.asarray(positions, dtype=_np.intp)
    taken = column.take(index)  # PAD wraps to the last row; masked below
    return ArrayColumn(taken.values, _and_validity(taken.validity, index >= 0))


def concat_columns(parts: Sequence[object]):
    """Concatenate column chunks; arrays stay arrays when dtypes agree."""
    if len(parts) == 1:
        return parts[0]
    if (
        _enabled
        and parts
        and all(isinstance(part, ArrayColumn) for part in parts)
        and len({part.values.dtype for part in parts}) == 1
    ):
        values = _np.concatenate([part.values for part in parts])
        if any(part.validity is not None for part in parts):
            validity = _np.concatenate(
                [
                    part.validity
                    if part.validity is not None
                    else _np.ones(len(part), dtype=bool)
                    for part in parts
                ]
            )
        else:
            validity = None
        return ArrayColumn(values, validity)
    output: List[object] = []
    for part in parts:
        output.extend(part)
    return output


# ---------------------------------------------------------------------------
# Sort orders
# ---------------------------------------------------------------------------


def sort_order(keys: Sequence[Tuple[object, bool]]):
    """A stable global sort order via ``np.lexsort``, or ``None``.

    *keys* holds ``(column, descending)`` pairs in ORDER BY priority.  The
    encoding mirrors ``_SortKey``/``_ComparableKey`` exactly: NULLs first
    (rank 0) ascending, ranks and values negated per-key for DESC, ties
    broken by ascending position (lexsort stability).  NaN anywhere breaks
    the total order, so it falls back to the decorated Python sort.
    """
    if not _enabled or not keys:
        return None
    sequence = []
    for column, descending in keys:
        if not isinstance(column, ArrayColumn):
            return None
        values = column.values
        if values.dtype.kind != "f":
            values = values.astype(_np.float64)  # exact: |int| <= 2**53, bool
        if _np.isnan(values).any():
            return None
        if column.validity is not None:
            rank = column.validity.astype(_np.float64)
            values = _np.where(column.validity, values, 0.0)
        else:
            rank = None
        if descending:
            values = -values
            if rank is not None:
                rank = -rank
        sequence.append((rank, values))
    lex: List[object] = []
    for rank, values in reversed(sequence):
        lex.append(values)
        if rank is not None:
            lex.append(rank)
    return _np.lexsort(lex)


# ---------------------------------------------------------------------------
# Grouped reductions
# ---------------------------------------------------------------------------


def _group_codes(key_columns: Sequence[ArrayColumn], length: int):
    """First-appearance-ordered group ids for *key_columns*, or ``None``.

    Returns ``(codes, count, first_positions)``: ``codes[i]`` is row *i*'s
    group id, ids numbered by each group's first appearance (matching the
    row executor's insertion-ordered group dict), ``first_positions[g]``
    the row where group *g* first appeared.
    """
    columns = []
    for column in key_columns:
        values = column.values
        if values.dtype.kind == "f" and _np.isnan(values).any():
            return None  # NaN keys have no consistent equality; fall back
        columns.append(values)
    order = _np.lexsort(tuple(reversed(columns)))
    boundary = _np.zeros(length, dtype=bool)
    boundary[0] = True
    for values in columns:
        ordered = values[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    sorted_ids = _np.cumsum(boundary) - 1
    count = int(sorted_ids[-1]) + 1
    # lexsort is stable, so a group's first sorted row is its first appearance.
    first = order[boundary]
    appearance = _np.argsort(first, kind="stable")
    rank = _np.empty(count, dtype=_np.int64)
    rank[appearance] = _np.arange(count)
    codes = _np.empty(length, dtype=_np.int64)
    codes[order] = rank[sorted_ids]
    return codes, count, first[appearance]


def group_codes(key_columns: Sequence[object], length: int):
    """:func:`_group_codes` behind its eligibility rule, or ``None``: every
    key must be a NULL-free typed array (a global aggregate has no keys and
    one group)."""
    if not _enabled:
        return None
    if not key_columns:
        return _np.zeros(length, dtype=_np.int64), 1, _np.zeros(1, dtype=_np.int64)
    for column in key_columns:
        if not isinstance(column, ArrayColumn) or column.has_nulls():
            return None
    return _group_codes(key_columns, length)


def group_order(codes, count: int):
    """The stable group order of first-appearance *codes*: ``(order,
    bounds)`` where group *g*'s rows are ``order[bounds[g]:bounds[g + 1]]``
    in input order — which is why a fold over a group's slice sees its
    values in exactly the order the row executor collected them."""
    if _enabled:
        codes = _np.asarray(codes, dtype=_np.int64)
        bounds = _np.zeros(count + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(codes, minlength=count), out=bounds[1:])
        return _np.argsort(codes, kind="stable"), bounds.tolist()
    members: List[List[int]] = [[] for _ in range(count)]
    for position, code in enumerate(codes):
        members[code].append(position)
    bounds = [0]
    for positions in members:
        bounds.append(bounds[-1] + len(positions))
    return [position for positions in members for position in positions], bounds


def reduce_groups(name: str, column, order, bounds: List[int]):
    """One non-DISTINCT aggregate over grouped rows via ``ufunc.reduceat``:
    per-group Python values equal to ``fold_aggregate``'s, or ``None`` where
    the kernel is not exact and the caller folds each group's slice instead.

    *column* is the argument column, ``None`` for ``COUNT(*)``.  Exact means:
    COUNT; SUM/AVG over int64 whose total cannot wrap (float addition is
    order-dependent, Python big-int sums are exact); MIN/MAX over int64 or
    NaN-free float64 (Python min/max over NaN is order-dependent).
    """
    if not _enabled or name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
        return None
    sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
    if column is None:  # COUNT(*): every member row counts, NULLs included
        return sizes if name == "COUNT" else None
    if not isinstance(column, ArrayColumn):
        return None
    starts = _np.asarray(bounds[:-1], dtype=_np.intp)
    validity = column.validity
    counts = (
        sizes
        if validity is None
        else _np.add.reduceat(validity[order].astype(_np.int64), starts).tolist()
    )
    if name == "COUNT":
        return counts
    values = column.values
    if name in ("SUM", "AVG"):
        if column.kind != "i":
            return None
        if int(_np.abs(values).max()) * len(values) > _SAFE_INT_BOUND:
            return None
        if validity is not None:
            values = _np.where(validity, values, 0)
        sums = _np.add.reduceat(values[order], starts).tolist()
        if name == "SUM":
            return [total if n else None for total, n in zip(sums, counts)]
        return [total / n if n else None for total, n in zip(sums, counts)]
    if column.kind == "b" or (column.kind == "f" and _np.isnan(values).any()):
        return None
    if name == "MIN":
        fill = _np.inf if column.kind == "f" else _np.iinfo(_np.int64).max
        ufunc = _np.minimum
    else:
        fill = -_np.inf if column.kind == "f" else _np.iinfo(_np.int64).min
        ufunc = _np.maximum
    if validity is not None:
        values = _np.where(validity, values, fill)
    reduced = ufunc.reduceat(values[order], starts).tolist()
    return [value if n else None for value, n in zip(reduced, counts)]
