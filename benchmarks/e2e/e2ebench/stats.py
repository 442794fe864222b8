"""The arithmetic every reported number goes through.

Kept free of ``repro`` imports and of clocks so the unit tests can pin it:
minimum over aligned passes, nearest-rank percentiles, and the quartile
spread the driver uses to decide whether a metric is steady.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


class DeterminismError(Exception):
    """Two passes over the same chunk list did not do the same operations."""


def min_over_passes(passes: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum of index-aligned per-pass samples.

    Every pass runs the same fixed operation list, so sample *i* of each
    pass times the same operation; its cost is the fastest observation (the
    host only ever adds time).  Passes of different lengths mean the
    operation sequence differed, which the benchmark treats as a failure.
    """
    if not passes:
        raise ValueError("no passes")
    length = len(passes[0])
    for index, samples in enumerate(passes):
        if len(samples) != length:
            raise DeterminismError(
                f"pass {index} has {len(samples)} samples, pass 0 has {length}"
            )
    return [min(column) for column in zip(*passes)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it.  No interpolation, so a
    percentile that falls between two clusters reports a real sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
