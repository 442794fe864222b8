"""One statement-level oracle matrix, as tests/test_engine_config.py is
the campaign-level one.

* A :class:`Cell` is an ``EngineConfig`` plus the numpy-kernel flag, set
  before every call to the cell (the axis drops out without numpy).
* :class:`Matrix` builds every cell's dialect over identical set-up
  statements, asserting that their outcomes agree.
* :func:`attempt` and :func:`freeze` normalise outcomes: rows by ``repr``
  (``1``, ``1.0`` and ``True`` stay distinct, NaN equals NaN), errors by
  type name and message.
* :data:`INVARIANT_UNDER` declares the observables each axis leaves
  unchanged; :meth:`Matrix.agree` compares every cell with every earlier
  one on those invariant under every axis the two differ in, and names
  every disagreement it finds.

A new setting or oracle is a new axis with declared invariants, never a new
copy of the lockstep loop.
"""

import itertools
from dataclasses import asdict, dataclass

from repro.converters import ConverterHub
from repro.core.compare import structural_fingerprint
from repro.dialects import EngineConfig, create_dialect
from repro.dialects.prepared import reset_runtime
from repro.engine import arrays
from repro.errors import ReproError
from repro.sqlparser.parser import parse_sql

#: Every axis and its values; numpy drops out when it is not importable.
AXES = {
    "executor": ("row", "vectorized", "parallel"),
    "prepared_cache": (True, False),
    "decorrelate": (True, False),
    "optimize_joins": (True, False),
    "numpy": (True, False) if arrays.numpy_available() else (False,),
}

#: Read off one execution: ordered rows, the multiset of rows (each row's
#: columns in order), the error type name and its message (``None`` where
#: they do not apply).
EXECUTION = ("rows", "row_multiset", "error", "message")
#: Read off the plan: EXPLAIN (FORMAT JSON) text, ``EXPLAIN ANALYZE`` rows
#: plus (kind, executed, actual_rows, loops) per node, and the unified
#: plan's fingerprint and structural fingerprint.
PLAN = ("explain", "analyze", "fingerprints")
OBSERVABLES = EXECUTION + PLAN

#: The observables each axis leaves unchanged.  The executor, the prepared
#: cache and the kernels are invisible everywhere; decorrelation changes
#: plans but never row order or rejections; join optimisation may also
#: reorder rows a query does not order, but not the columns of a row.
INVARIANT_UNDER = {
    "executor": set(OBSERVABLES),
    "prepared_cache": set(OBSERVABLES),
    "numpy": set(OBSERVABLES),
    "decorrelate": {"rows", "row_multiset", "error"},
    "optimize_joins": {"row_multiset", "error"},
}

#: What an axis also leaves unchanged for a statement with no subquery.
WITHOUT_SUBQUERY = {"decorrelate": set(PLAN)}


@dataclass(frozen=True)
class Cell:
    config: EngineConfig
    numpy: bool

    def value(self, axis):
        return self.numpy if axis == "numpy" else getattr(self.config, axis)

    def __str__(self):
        off = [name for name in ("prepared_cache", "decorrelate", "optimize_joins")
               if not getattr(self.config, name)]
        kernel = "numpy" if self.numpy else "list"
        return "-".join([self.config.executor, kernel] + [f"no_{name}" for name in off])


def cells(*rows):
    """Cells from ``(executor, prepared_cache, decorrelate, optimize_joins,
    numpy)`` rows, in order; without numpy a numpy cell becomes its list
    twin, and a twin already listed is dropped."""
    built = []
    for executor, cache, decorrelate, optimize_joins, numpy in rows:
        config = EngineConfig(executor=executor, prepared_cache=cache,
                              decorrelate=decorrelate, optimize_joins=optimize_joins)
        cell = Cell(config, numpy and arrays.numpy_available())
        if cell not in built:
            built.append(cell)
    return built


def kernel_cells(*executors, prepared_cache=True):
    """One cell per executor and kernel mode (numpy only where it runs)."""
    return cells(*(
        (executor, prepared_cache, True, True, numpy)
        for executor in executors
        for numpy in ((False, True) if executor != "row" else (False,))
    ))


def uncovered_pairs(matrix_cells, domains):
    """The value pairs of two axes in *domains* that no cell holds."""
    return {
        (first, second, one, two)
        for first, second in itertools.combinations(domains, 2)
        for one, two in itertools.product(domains[first], domains[second])
        if not any(cell.value(first) == one and cell.value(second) == two for cell in matrix_cells)
    }


def invariant(axes, statement):
    """The observables unchanged under every axis in *axes* for *statement*."""
    plain = "(SELECT" not in statement.upper()
    names = set(OBSERVABLES)
    for axis in axes:
        names &= INVARIANT_UNDER[axis] | (WITHOUT_SUBQUERY.get(axis, set()) if plain else set())
    return names


def attempt(call):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", call())
    except ReproError as exc:  # rejections are compared, not hidden
        return ("error", type(exc).__name__, str(exc))


def freeze(rows):
    """Rows as ``(column, repr(value))`` tuples."""
    return [tuple((key, repr(value)) for key, value in row.items()) for row in rows]


def observe_rows(call):
    """The execution observables of ``call()``, which returns rows."""
    status, *payload = attempt(call)
    if status == "ok":
        rows = freeze(payload[0])
        return {"rows": rows, "row_multiset": sorted(rows), "error": None, "message": None}
    return {"rows": None, "row_multiset": None, "error": payload[0], "message": payload[1]}


_HUB = ConverterHub()


def observe_plan(dialect, statement):
    text = dialect.explain(statement, format="json").text
    unified = _HUB.convert(dialect.name, text, "json", use_cache=False)
    plan = dialect.planner.plan_statement(parse_sql(statement)[0])
    rows = dialect.executor.execute(reset_runtime(plan), analyze=True)
    counts = [
        (node.kind, node.runtime.executed, node.runtime.actual_rows, node.runtime.loops)
        for node in plan.walk()
    ]
    return {
        "explain": text,
        "analyze": (freeze(rows), counts),
        "fingerprints": (unified.fingerprint(), structural_fingerprint(unified)),
    }


class Matrix:
    """Every cell's PostgreSQL dialect, kept in lockstep."""

    def __init__(self, matrix_cells, setup=(), load=None):
        self.cells = list(matrix_cells)
        self.dialects = [create_dialect("postgresql", **asdict(cell.config)) for cell in self.cells]
        for statement in setup:
            self.check(statement)
        if load is not None:
            self.each(load)

    def each(self, call):
        """``call(dialect)`` in every cell, under the cell's kernels."""
        results = []
        for cell, dialect in zip(self.cells, self.dialects):
            arrays.set_numpy_enabled(cell.numpy)
            results.append(call(dialect))
        return results

    def analyze(self):
        self.each(lambda dialect: dialect.analyze_tables())

    def mismatches(self, statement, observed):
        """``(observable, cell index, earlier cell index, changed axes)`` for
        every observable on which a cell disagrees with an earlier one while
        the axes the two differ in leave it unchanged (*observed* holds one
        observable dict per cell)."""
        found = []
        for index, (cell, mine) in enumerate(zip(self.cells, observed)):
            for earlier, (other, theirs) in enumerate(zip(self.cells[:index], observed)):
                axes = [axis for axis in AXES if cell.value(axis) != other.value(axis)]
                names = invariant(axes, statement) & set(mine)
                found.extend(
                    (name, index, earlier, axes) for name in OBSERVABLES
                    if name in names and mine[name] != theirs.get(name)
                )
        return found

    def agree(self, statement, observed):
        """Assert :meth:`mismatches` finds none, naming every one it finds."""
        found = self.mismatches(statement, observed)
        assert not found, "\n".join(
            f"{name} of {statement!r}: {self.cells[index]} differs from "
            f"{self.cells[earlier]} (changed: {axes})"
            for name, index, earlier, axes in found
        )

    @staticmethod
    def observe(dialect, statement, plan=False, repeat=False):
        """The observables of *statement* in *dialect*: *plan* adds the plan
        observables of a statement that ran, *repeat* runs it again when
        the cache is on (the repeat executes the cached plan tree)."""
        observation = observe_rows(lambda: dialect.execute(statement))
        if repeat and dialect.prepared.enabled:
            assert observe_rows(lambda: dialect.execute(statement)) == observation, statement
        if plan and observation["error"] is None:
            observation.update(observe_plan(dialect, statement))
            assert observation["analyze"][0] == observation["rows"], statement
        return observation

    def check(self, statement, plan=False, repeat=False):
        """Observe *statement* in every cell and compare; returns the first
        cell's observables."""
        observed = self.each(lambda dialect: self.observe(dialect, statement, plan, repeat))
        self.agree(statement, observed)
        return observed[0]
