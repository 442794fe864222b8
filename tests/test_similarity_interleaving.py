"""Interleaved ``PlanIndex`` operations against a brute-force model.

PR 24 made the dense matrix append-only: rows enter in insertion order into
spare capacity (doubled when it runs out) from ``add``, load, ``merge*``
alike, and ``query`` keeps only the entries no farther than the *k*-th
distance before ordering them.  None of that may be observable.  Every
state sequence below drives three things in lockstep —

* ``mixed``: a durable index whose numpy switch is drawn per operation, so
  the matrix lags behind by arbitrary spans of list-path steps and has to
  catch up;
* ``plain``: a durable index that never touches numpy;
* a dict plus :func:`cosine_distance`, the specification —

and asserts bit-identical distances and ``(distance, fingerprint)`` order at
every step.  Vectors are narrow and small-valued on purpose: most entries
are parallel to several others, so exact distance ties straddle the *k*-th
position all the time, and the zero vector is a legal entry and probe.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import arrays
from repro.similarity import PlanIndex, cosine_distance
from repro.similarity.index import _DENSE_MIN_ENTRIES

_WIDTH = 3

_VECTORS = st.lists(
    st.integers(min_value=0, max_value=2).map(float), min_size=_WIDTH, max_size=_WIDTH
).map(tuple)

#: Hex fingerprints route by prefix, the others through the hash fallback.
_FINGERPRINTS = st.one_of(
    st.text(alphabet="0123456789abcdef", min_size=4, max_size=8),
    st.text(alphabet="xyz-", min_size=1, max_size=4),
)

_K = st.integers(min_value=1, max_value=12)

_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), _FINGERPRINTS, _VECTORS),
    st.tuples(st.just("add"), _FINGERPRINTS, _VECTORS),
    st.tuples(st.just("nearest_distance"), _VECTORS),
    st.tuples(st.just("query"), _VECTORS, _K),
    st.tuples(st.just("merge_payload"), st.dictionaries(_FINGERPRINTS, _VECTORS, max_size=20)),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("compact")),
)


def expected_query(model, probe, k):
    ranked = sorted(
        (cosine_distance(vector, probe), fingerprint)
        for fingerprint, vector in model.items()
    )
    return [(fingerprint, distance) for distance, fingerprint in ranked[:k]]


class Lockstep:
    """``mixed``, ``plain`` and the model, advanced one operation at a time."""

    def __init__(self, root, shard_count=4):
        self.root = root
        self.shard_count = shard_count
        self.mixed = PlanIndex(path=f"{root}/mixed", shard_count=shard_count)
        self.plain = PlanIndex(path=f"{root}/plain", shard_count=shard_count)
        self.model = {}

    def close(self):
        self.mixed.close()
        self.plain.close()

    def _both(self, use_numpy, call):
        arrays.set_numpy_enabled(use_numpy)
        mixed = call(self.mixed)
        arrays.set_numpy_enabled(False)
        plain = call(self.plain)
        assert mixed == plain
        return mixed

    def apply(self, operation, use_numpy):
        kind = operation[0]
        if kind == "add":
            _, fingerprint, vector = operation
            added = self._both(use_numpy, lambda index: index.add(fingerprint, vector))
            assert added == (fingerprint not in self.model)
            self.model.setdefault(fingerprint, vector)
        elif kind == "nearest_distance":
            probe = operation[1]
            got = self._both(use_numpy, lambda index: index.nearest_distance(probe))
            best = expected_query(self.model, probe, 1)
            assert got == (best[0][1] if best else 1.0)
        elif kind == "query":
            _, probe, k = operation
            got = self._both(use_numpy, lambda index: index.query(probe, k=k))
            assert got == expected_query(self.model, probe, k)
        elif kind == "merge_payload":
            payload = {"entries": {f: list(v) for f, v in operation[1].items()}}
            added = self._both(use_numpy, lambda index: index.merge_payload(payload))
            assert added == len(set(operation[1]) - set(self.model))
            for fingerprint in sorted(operation[1]):
                self.model.setdefault(fingerprint, operation[1][fingerprint])
        elif kind == "reopen":
            self.mixed.save()
            self.plain.save()
            self.close()
            self.mixed = PlanIndex.open(f"{self.root}/mixed", shard_count=self.shard_count)
            self.plain = PlanIndex.open(f"{self.root}/plain", shard_count=self.shard_count)
        elif kind == "compact":
            assert self.mixed.compact()[1] == len(self.model)
            assert self.plain.compact()[1] == len(self.model)
        assert len(self.mixed) == len(self.plain) == len(self.model)
        assert self.mixed.to_payload() == self.plain.to_payload() == {
            "entries": {f: list(v) for f, v in self.model.items()}
        }


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.tuples(_OPERATIONS, st.booleans()), min_size=1, max_size=70),
    probe=_VECTORS,
)
def test_any_interleaving_matches_the_model(tmp_path_factory, steps, probe):
    lockstep = Lockstep(str(tmp_path_factory.mktemp("interleave")))
    try:
        for operation, use_numpy in steps:
            lockstep.apply(operation, use_numpy)
        # Whatever the sequence left behind, both paths still agree in full.
        for use_numpy in (True, False):
            lockstep.apply(("query", probe, len(lockstep.model) + 1), use_numpy)
    finally:
        lockstep.close()


def test_score_then_add_across_capacity_doublings(tmp_path):
    """QPG's pattern — ``nearest_distance`` then ``add`` — for 80 entries.

    The matrix is first allocated at the dense threshold (capacity 2 × 8)
    and must then double at least twice more (17 → 34, 35 → 70); a reopen
    and a payload merge land mid-way, so loaded, merged and added rows share
    one matrix.  Every step is also checked one entry either side of
    ``_DENSE_MIN_ENTRIES`` by construction (the loop passes through it).
    """
    lockstep = Lockstep(str(tmp_path))
    vectors = [
        (float(i % 3), float((i // 3) % 3), float((i // 9) % 3)) for i in range(27)
    ]  # includes (0, 0, 0) and, for every direction, its multiples
    try:
        for position in range(80):
            vector = vectors[(position * 7) % len(vectors)]
            lockstep.apply(("nearest_distance", vector), True)
            lockstep.apply(("add", f"{position * 2654435761 % 65536:04x}-{position}", vector), True)
            lockstep.apply(("query", vector, 5), True)
            if position == 20:
                lockstep.apply(("reopen",), True)
            if position == 40:
                extra = {f"merged-{i}": vectors[i] for i in range(0, 27, 4)}
                lockstep.apply(("merge_payload", extra), True)
        assert len(lockstep.model) == 87
        if arrays.numpy_available():
            # Loaded, merged and added rows all went into the one matrix.
            assert lockstep.mixed._dense_rows == 87
            assert len(lockstep.mixed._matrix) >= 87
            assert lockstep.plain._matrix is None
    finally:
        lockstep.close()


@pytest.mark.parametrize("entries", [_DENSE_MIN_ENTRIES - 1, _DENSE_MIN_ENTRIES, _DENSE_MIN_ENTRIES + 1])
def test_ties_straddling_k_at_the_dense_boundary(tmp_path, entries):
    """All entries parallel: every distance ties, so *k* cuts through a tie
    and only the fingerprint decides — on both sides of the list/numpy switch."""
    lockstep = Lockstep(str(tmp_path))
    try:
        for position in range(entries):
            scale = float(position % 2 + 1)
            lockstep.apply(("add", f"{(entries - position) * 4099:04x}", (scale, scale, 0.0)), True)
        for k in (1, 3, entries - 1, entries, entries + 1):
            lockstep.apply(("query", (1.0, 1.0, 0.0), k), True)
            lockstep.apply(("query", (0.0, 0.0, 0.0), k), True)
        lockstep.apply(("add", "zero", (0.0, 0.0, 0.0)), True)
        for k in (1, 2, entries + 1):
            lockstep.apply(("query", (0.0, 0.0, 0.0), k), True)
            lockstep.apply(("query", (0.0, 2.0, 1.0), k), True)
    finally:
        lockstep.close()
