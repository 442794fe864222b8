"""A minimal time-series store backing the simulated InfluxDB dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Point:
    """One time-series point: timestamp, tag set, and field values."""

    timestamp: int
    tags: Dict[str, str] = field(default_factory=dict)
    fields: Dict[str, float] = field(default_factory=dict)


class TimeSeriesStore:
    """Measurements → points, organised into fixed-width shards."""

    def __init__(self, shard_width: int = 100_000) -> None:
        self._measurements: Dict[str, List[Point]] = {}
        self.shard_width = shard_width

    def write(self, measurement: str, points: Iterable[Point]) -> int:
        """Append points to *measurement*; returns the number written."""
        bucket = self._measurements.setdefault(measurement, [])
        added = 0
        for point in points:
            bucket.append(point)
            added += 1
        bucket.sort(key=lambda point: point.timestamp)
        return added

    def points(self, measurement: str) -> List[Point]:
        return list(self._measurements.get(measurement, []))

    def series_count(self, measurement: str) -> int:
        """Count distinct tag sets (series) in a measurement."""
        seen = {
            tuple(sorted(point.tags.items()))
            for point in self._measurements.get(measurement, [])
        }
        return len(seen)

    def shard_count(self, measurement: str) -> int:
        """Count the time shards the measurement's points fall into."""
        points = self._measurements.get(measurement, [])
        if not points:
            return 0
        shards = {point.timestamp // self.shard_width for point in points}
        return len(shards)

    def block_count(self, measurement: str) -> int:
        """Approximate the number of TSM blocks (1000 values per block)."""
        points = self._measurements.get(measurement, [])
        values = sum(len(point.fields) for point in points)
        return max((values + 999) // 1000, 1) if points else 0

    def query(
        self,
        measurement: str,
        time_range: Optional[Tuple[Optional[int], Optional[int]]] = None,
        tag_filter: Optional[Dict[str, str]] = None,
    ) -> List[Point]:
        """Return points matching a time range and tag equality filter."""
        low, high = time_range or (None, None)
        selected = []
        for point in self._measurements.get(measurement, []):
            if low is not None and point.timestamp < low:
                continue
            if high is not None and point.timestamp > high:
                continue
            if tag_filter and any(point.tags.get(k) != v for k, v in tag_filter.items()):
                continue
            selected.append(point)
        return selected
