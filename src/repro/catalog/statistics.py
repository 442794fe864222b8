"""Table and column statistics used by the cost-based optimizer.

The statistics mirror what mature DBMSs collect (Section III-D of the paper
notes that Cardinality properties are derived from collected statistics):
row counts, per-column distinct-value counts, null fractions, min/max bounds,
and equi-depth histograms for numeric columns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

DEFAULT_EQUALITY_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass
class ColumnStatistics:
    """Statistics for one column."""

    column: str
    distinct_values: int = 0
    null_fraction: float = 0.0
    minimum: Optional[object] = None
    maximum: Optional[object] = None
    #: Equi-depth histogram bucket boundaries (numeric columns only).
    histogram: List[float] = field(default_factory=list)
    is_numeric: bool = False

    def equality_selectivity(self) -> float:
        """Estimate the selectivity of ``column = constant``."""
        if self.distinct_values <= 0:
            return DEFAULT_EQUALITY_SELECTIVITY
        return max(1.0 / self.distinct_values, 1e-9) * (1.0 - self.null_fraction)

    def range_selectivity(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> float:
        """Estimate the selectivity of a range predicate on a numeric column.

        Uses the histogram when available, otherwise linearly interpolates
        between the min/max bounds; falls back to a default constant when no
        statistics exist.
        """
        if not self.is_numeric or low != low or high != high:
            # A NaN bound orders against nothing: no estimate beats the default.
            return DEFAULT_RANGE_SELECTIVITY
        if self.histogram:
            return self._histogram_fraction(low, high)
        if (
            self.minimum is None
            or self.maximum is None
            or not isinstance(self.minimum, (int, float))
            or not isinstance(self.maximum, (int, float))
        ):
            return DEFAULT_RANGE_SELECTIVITY
        lower_bound = float(self.minimum)
        upper_bound = float(self.maximum)
        if upper_bound <= lower_bound:
            return DEFAULT_RANGE_SELECTIVITY
        effective_low = lower_bound if low is None else max(low, lower_bound)
        effective_high = upper_bound if high is None else min(high, upper_bound)
        if effective_high < effective_low:
            return 0.0
        fraction = (effective_high - effective_low) / (upper_bound - lower_bound)
        return self._clamp(fraction)

    def _histogram_fraction(
        self, low: Optional[float], high: Optional[float]
    ) -> float:
        bounds = self.histogram
        buckets = len(bounds) - 1
        if buckets <= 0:
            return DEFAULT_RANGE_SELECTIVITY
        lower = bounds[0] if low is None else low
        upper = bounds[-1] if high is None else high
        if upper < lower:
            return 0.0

        def position(value: float) -> float:
            """Fractional bucket position of *value* within the histogram."""
            if value <= bounds[0]:
                return 0.0
            if value >= bounds[-1]:
                return float(buckets)
            index = bisect_right(bounds, value) - 1
            width = bounds[index + 1] - bounds[index]
            offset = 0.0 if width == 0 else (value - bounds[index]) / width
            return index + offset

        fraction = (position(upper) - position(lower)) / buckets
        return self._clamp(fraction)

    def _clamp(self, fraction: float) -> float:
        """*fraction* of the non-null rows, clamped to ``[0, 1]``; a NaN
        (``inf - inf`` between infinite bounds) falls back to the default."""
        selectivity = fraction * (1.0 - self.null_fraction)
        if selectivity != selectivity:
            return DEFAULT_RANGE_SELECTIVITY
        return min(max(selectivity, 0.0), 1.0)


@dataclass
class TableStatistics:
    """Statistics for one table."""

    table: str
    row_count: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Return statistics for *name* (case-insensitive), if collected."""
        return self.columns.get(name.lower())


def collect_column_statistics(
    column: str, values: Sequence[object], is_numeric: bool
) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` from a column's values.

    A float NaN counts toward the distinct values but not toward the
    bounds: it is unordered, so ``min``/``max`` and the histogram's sort
    would return whatever happened to sit next to it.  The histogram also
    skips infinities, whose bucket widths would interpolate to NaN.
    """
    non_null = [value for value in values if value is not None]
    total = len(values)
    statistics = ColumnStatistics(
        column=column,
        distinct_values=len(set(non_null)),
        null_fraction=0.0 if total == 0 else (total - len(non_null)) / total,
        is_numeric=is_numeric,
    )
    ordered = [value for value in non_null if value == value]
    if ordered:
        try:
            statistics.minimum = min(ordered)
            statistics.maximum = max(ordered)
        except TypeError:
            statistics.minimum = None
            statistics.maximum = None
    if is_numeric and ordered:
        numeric = sorted(
            float(value)
            for value in ordered
            if isinstance(value, (int, float)) and math.isfinite(value)
        )
        if numeric:
            statistics.histogram = _equi_depth_histogram(numeric)
    return statistics


def _equi_depth_histogram(
    sorted_values: List[float], buckets: int = DEFAULT_HISTOGRAM_BUCKETS
) -> List[float]:
    """Build equi-depth histogram bucket boundaries from sorted values."""
    count = len(sorted_values)
    if count == 0:
        return []
    buckets = min(buckets, count)
    bounds = [sorted_values[0]]
    for bucket in range(1, buckets):
        index = min(int(round(bucket * count / buckets)), count - 1)
        bounds.append(sorted_values[index])
    bounds.append(sorted_values[-1])
    return bounds


def collect_table_statistics(
    table: str,
    rows: Sequence[Dict[str, object]],
    numeric_columns: Sequence[str],
    all_columns: Sequence[str],
) -> TableStatistics:
    """Compute :class:`TableStatistics` for *table* from its rows."""
    statistics = TableStatistics(table=table, row_count=len(rows))
    numeric = {name.lower() for name in numeric_columns}
    for column in all_columns:
        values = [row.get(column) for row in rows]
        statistics.columns[column.lower()] = collect_column_statistics(
            column, values, column.lower() in numeric
        )
    return statistics
