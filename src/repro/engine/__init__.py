"""Execution engine substrate: expression evaluation and the plan executors.

Three interchangeable executors interpret physical plans: the row-at-a-time
:class:`~repro.engine.executor.Executor` (the correctness oracle), the
columnar :class:`~repro.engine.vectorized.VectorizedExecutor` (the fast
path), and the morsel-driven :class:`~repro.engine.morsel.ParallelExecutor`
(the vectorized engine with exchange-operator parallelism for scans,
filters, and hash-join builds).  ``create_executor`` picks one by name —
the ``executor`` field of :class:`~repro.dialects.base.EngineConfig`, which
the dialects, campaigns and query service carry."""

from repro.engine import arrays
from repro.engine.arrays import (
    ArrayColumn,
    numpy_available,
    numpy_enabled,
    set_numpy_enabled,
)
from repro.engine.expressions import (
    BatchContext,
    EvaluationContext,
    compile_expression_batch,
    compile_predicate_batch,
    evaluate,
    evaluate_predicate,
    resolve_column,
)
from repro.engine.executor import Executor
from repro.engine.morsel import MorselExchange, ParallelExecutor
from repro.engine.vectorized import RowBatch, VectorizedExecutor

#: The executor implementations selectable by name.
EXECUTORS = {
    "row": Executor,
    "vectorized": VectorizedExecutor,
    "parallel": ParallelExecutor,
}


def executor_class(kind: str) -> type:
    """The executor implementation called *kind* (case-insensitive)."""
    implementation = EXECUTORS.get(kind.lower()) if isinstance(kind, str) else None
    if implementation is None:
        raise ValueError(f"unknown executor {kind!r}; available: {sorted(EXECUTORS)}")
    return implementation


def create_executor(kind: str, database, planner=None) -> Executor:
    """Instantiate the executor implementation called *kind*."""
    return executor_class(kind)(database, planner)


__all__ = [
    "arrays",
    "ArrayColumn",
    "numpy_available",
    "numpy_enabled",
    "set_numpy_enabled",
    "BatchContext",
    "EvaluationContext",
    "compile_expression_batch",
    "compile_predicate_batch",
    "evaluate",
    "evaluate_predicate",
    "resolve_column",
    "Executor",
    "MorselExchange",
    "ParallelExecutor",
    "RowBatch",
    "VectorizedExecutor",
    "EXECUTORS",
    "create_executor",
    "executor_class",
]
