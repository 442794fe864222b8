"""Ordered secondary indexes over heap tables.

The index keeps ``(key, row_id)`` entries in sorted order and supports point
lookups, range scans, and ordered full scans — the access paths that back
``Index Scan`` / ``Index Only Scan`` / ``Index Range Scan`` operations in the
simulated DBMSs.  A ``None`` component in a key sorts before every non-null
value, mirroring NULLS FIRST ordering.

Entries hold *native* keys: one ``(rank, value)`` tuple per key component
(:func:`key_part`), exactly the pair a :class:`_SortKey` compares, so bisect
compares plain tuples in C instead of calling ``__eq__`` / ``__lt__`` per
step.  Order and equality are unchanged, NaN included: a tuple comparison
takes the same identity shortcut on its elements that comparing two
``_SortKey._key()`` pairs took.  :class:`_SortKey` stays for the executors'
sort paths, which mix it with per-key descending flags.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import Index
from repro.errors import StorageError

IndexKey = Tuple[object, ...]
NativeKey = Tuple[Tuple[int, object], ...]


def key_part(value: object) -> Tuple[int, object]:
    """The total-order ``(rank, value)`` pair of one key component: NULL
    first, then numbers (bools as ints, the rest as floats, so ``1``,
    ``1.0`` and ``True`` are one key), then everything else as text."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))


def native_key(key: Sequence[object]) -> NativeKey:
    """The native form of a raw key tuple, as index entries store it."""
    return tuple(map(key_part, key))


class _SortKey:
    """A total-order wrapper so heterogeneous/None keys can be compared."""

    __slots__ = ("rank", "value")

    def __init__(self, value: object) -> None:
        self.rank, self.value = key_part(value)

    def _key(self) -> Tuple[int, object]:
        return (self.rank, self.value)

    def __lt__(self, other: "_SortKey") -> bool:
        return self._key() < other._key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def sortable(key: Sequence[object]) -> Tuple[_SortKey, ...]:
    """Wrap a raw key tuple so it can be compared against any other key."""
    return tuple(_SortKey(component) for component in key)


class OrderedIndex:
    """A sorted ``(key, row_id)`` index supporting point and range scans."""

    def __init__(self, definition: Index) -> None:
        self.definition = definition
        self._entries: List[Tuple[NativeKey, IndexKey, int]] = []
        #: Set once a key holding a NaN is inserted: NaN compares false both
        #: ways, so ``insort`` stops keeping the entries sorted (by leading
        #: value, or within one leading value when a later component is
        #: NaN) and no lookup, scan, removal or uniqueness check can bisect
        #: them any more.
        self._unordered = False

    # -- maintenance -------------------------------------------------------------

    def insert(self, key: Sequence[object], row_id: int) -> None:
        """Insert an entry; rejects duplicates for unique indexes."""
        raw = tuple(key)
        wrapped = native_key(raw)
        if self.definition.unique and self._contains_key(wrapped):
            raise StorageError(
                f"duplicate key {raw!r} for unique index {self.definition.name!r}"
            )
        insort(self._entries, (wrapped, raw, row_id))
        if not self._unordered:
            for value in raw:
                if value != value:
                    self._unordered = True
                    break

    def remove(self, key: Sequence[object], row_id: int) -> None:
        """Remove the entry for ``(key, row_id)`` if present."""
        wrapped = native_key(key)
        if self._unordered:
            for index, (entry, _, entry_row_id) in enumerate(self._entries):
                if entry_row_id == row_id and entry == wrapped:
                    del self._entries[index]
                    return
            return
        index = bisect_left(self._entries, (wrapped,))
        while index < len(self._entries) and self._entries[index][0] == wrapped:
            if self._entries[index][2] == row_id:
                del self._entries[index]
                return
            index += 1

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._unordered = False

    def _contains_key(self, wrapped: NativeKey) -> bool:
        if self._unordered:
            return any(entry == wrapped for entry, _, _ in self._entries)
        position = bisect_left(self._entries, (wrapped,))
        return (
            position < len(self._entries) and self._entries[position][0] == wrapped
        )

    # -- lookups -----------------------------------------------------------------

    def lookup(self, key: Sequence[object]) -> List[int]:
        """Return the row ids whose full key equals *key*.

        Like :meth:`range_scan`, an index holding a key with a NaN is
        no longer sorted, so it tests every entry instead of bisecting.
        """
        wrapped = native_key(key)
        if self._unordered:
            return [row_id for entry, _, row_id in self._entries if entry == wrapped]
        results: List[int] = []
        position = bisect_left(self._entries, (wrapped,))
        while position < len(self._entries) and self._entries[position][0] == wrapped:
            results.append(self._entries[position][2])
            position += 1
        return results

    def prefix_lookup(self, prefix: Sequence[object]) -> List[int]:
        """Return row ids whose key starts with *prefix* (leading columns)."""
        wrapped_prefix = native_key(prefix)
        width = len(wrapped_prefix)
        if self._unordered:
            return [
                row_id
                for entry, _, row_id in self._entries
                if entry[:width] == wrapped_prefix
            ]
        results: List[int] = []
        position = bisect_left(self._entries, (wrapped_prefix,))
        while position < len(self._entries):
            wrapped, _, row_id = self._entries[position]
            if wrapped[:width] != wrapped_prefix:
                break
            results.append(row_id)
            position += 1
        return results

    def range_scan(
        self,
        low: Optional[object] = None,
        high: Optional[object] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[IndexKey, int]]:
        """Yield ``(key, row_id)`` for leading-column values in ``[low, high]``.

        Entries are sorted by leading value with NULLs first, so the answer
        is the slice between two bisections; entries with a NULL leading
        value are never yielded.  A NaN, which sorts nowhere, in a bound or
        in any stored key sends the scan through every entry instead,
        testing each one.
        """
        entries = self._entries
        if not (self._unordered or low != low or high != high):
            # With no low bound the slice starts after the NULLs.
            start = self._leading_position(key_part(low), after=low is None or not include_low)
            stop = (
                len(entries) if high is None
                else self._leading_position(key_part(high), after=include_high)
            )
            for _, raw, row_id in entries[start:stop]:
                yield raw, row_id
            return
        for wrapped, raw, row_id in entries:
            leading = raw[0] if raw else None
            if leading is None:
                continue
            leading_key = key_part(leading)
            if low is not None:
                low_key = key_part(low)
                if leading_key < low_key or (leading_key == low_key and not include_low):
                    continue
            if high is not None:
                high_key = key_part(high)
                if high_key < leading_key or (leading_key == high_key and not include_high):
                    continue
            yield raw, row_id

    def _leading_position(self, key: Tuple[int, object], after: bool) -> int:
        """The first entry whose leading value sorts after *key*, or at it
        unless *after*."""
        entries = self._entries
        probe = (key,)
        low, high = 0, len(entries)
        while low < high:
            middle = (low + high) // 2
            leading = entries[middle][0][:1]
            if leading < probe or (after and leading == probe):
                low = middle + 1
            else:
                high = middle
        return low

    def ordered_entries(self) -> Iterator[Tuple[IndexKey, int]]:
        """Yield every ``(key, row_id)`` pair in key order."""
        for _, raw, row_id in self._entries:
            yield raw, row_id

    @property
    def entry_count(self) -> int:
        """The number of index entries."""
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedIndex({self.definition.name!r}, entries={len(self._entries)})"
