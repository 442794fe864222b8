"""How rows are chunked between operators.

The serial vectorized engine does not cap batches: every operator emits its
output as produced, one :class:`~repro.engine.vectorized.RowBatch` per run
of rows sharing a key set.  The parallel executor alone cuts its inputs into
:data:`~repro.engine.morsel.MORSEL_ROWS`-row morsels, so it still has chunks
to fan across the exchange.  Row-level identity with the oracles is pinned
elsewhere (tests/test_vectorized_equivalence.py,
tests/test_parallel_equivalence.py, tests/test_columnar_operators.py runs
both a small cap and the uncapped default); here only the shapes are.
"""

from repro.dialects import create_dialect
from repro.engine.morsel import MORSEL_ROWS, MorselExchange
from repro.engine.vectorized import VectorizedExecutor
from repro.optimizer.physical import JOIN_KINDS, OpKind

ROWS = 3600
QUERY = (
    "SELECT fact.a, dim.v FROM fact JOIN dim ON fact.a = dim.k "
    "WHERE fact.b < 90"
)


def _dialect(executor):
    dialect = create_dialect("postgresql")
    dialect.reconfigure(executor=executor)
    dialect.execute("CREATE TABLE fact (a INT, b INT)")
    dialect.execute("CREATE TABLE dim (k INT, v INT)")
    dialect.database.insert_rows(
        "fact", [{"a": i % 200, "b": i % 100} for i in range(ROWS)]
    )
    dialect.database.insert_rows("dim", [{"k": i, "v": i * 3} for i in range(ROWS)])
    dialect.analyze_tables()
    return dialect


def _record_batches(monkeypatch):
    """Patch the batch dispatcher to log ``(kind, [batch lengths])``."""
    seen = []
    original = VectorizedExecutor._execute_batches

    def recording(self, node, analyze, outer_row):
        batches = original(self, node, analyze, outer_row)
        seen.append((node.kind, [batch.length for batch in batches]))
        return batches

    monkeypatch.setattr(VectorizedExecutor, "_execute_batches", recording)
    return seen


def test_serial_pipeline_flows_one_batch_per_operator(monkeypatch):
    dialect = _dialect("vectorized")
    assert dialect.executor.batch_size is None
    seen = _record_batches(monkeypatch)
    rows = dialect.execute(QUERY)
    assert len(rows) == ROWS * 9 // 10
    kinds = {kind for kind, _ in seen}
    assert OpKind.SEQ_SCAN in kinds
    assert kinds & JOIN_KINDS
    for kind, lengths in seen:
        assert len(lengths) == 1, (kind, lengths)
    scans = [lengths[0] for kind, lengths in seen if kind is OpKind.SEQ_SCAN]
    assert ROWS in scans  # the unfiltered side arrives whole


def test_parallel_executor_cuts_morsels_and_fans_out(monkeypatch):
    expected = _dialect("vectorized").execute(QUERY)
    parallel = _dialect("parallel")
    assert parallel.executor.batch_size == MORSEL_ROWS
    fanned = []
    original_map = MorselExchange.map

    def counting_map(self, items, stage):
        fanned.append(len(items))
        return original_map(self, items, stage)

    monkeypatch.setattr(MorselExchange, "map", counting_map)
    seen = _record_batches(monkeypatch)
    assert parallel.execute(QUERY) == expected
    morsels = [
        lengths
        for kind, lengths in seen
        if kind is OpKind.SEQ_SCAN and sum(lengths) > MORSEL_ROWS
    ]
    assert morsels
    for lengths in morsels:
        assert len(lengths) > 1
        assert max(lengths) <= MORSEL_ROWS
    assert any(count > 1 for count in fanned)
