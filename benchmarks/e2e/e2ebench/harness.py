"""Measurement core: set-up rounds, aligned passes, op recording, results.

The rules that make two runs of the same code agree on a noisy two-core
host (see README.md, "Measurement rules"):

* the timed phase is a fixed, seed-derived chunk list run for ``PASSES``
  passes; a chunk's time and an op's latency are their minimum over the
  passes, and a pass whose op sequence differs from pass 0 is an error;
* every set-up step runs ``SETUP_ROUNDS`` times on a fresh workload object,
  round-robin, and contributes its minimum;
* a stdlib-only calibration kernel brackets the passes so a disturbed run
  identifies itself; no metric is normalised by it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import ReproError

from e2ebench import metrics
from e2ebench.stats import DeterminismError, min_over_passes, percentile
from e2ebench.tracing import Tracer

PASSES = 5
#: Untraced passes of a ``--trace`` run: enough for the overhead baseline.
TRACE_UNTRACED_PASSES = 2
SETUP_ROUNDS = 3

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(HERE, "out")


class CheckFailed(Exception):
    """A correctness gate failed; the run exits non-zero without numbers."""


# -- host ----------------------------------------------------------------------


def calibrate() -> float:
    """Milliseconds a fixed stdlib-only kernel takes (about 30 on this host).

    Imports nothing from ``repro`` so it never changes with the repository:
    integer arithmetic, dict and list churn, string building and hashing.
    """
    started = time.perf_counter()
    state = 12345
    table: Dict[int, int] = {}
    for index in range(60000):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        table[state & 1023] = index
    words = [str(value) for value in range(20000)]
    digest = hashlib.sha256(",".join(words).encode("ascii")).hexdigest()
    ordered = sorted(words, key=lambda word: word[::-1])
    assert digest and ordered and table
    return (time.perf_counter() - started) * 1e3


def host_fingerprint() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        numpy_version = "disabled"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def process_age_s() -> float:
    """Seconds since this process started, from ``/proc`` (0.0 elsewhere)."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", "r", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The service workload runs client and server threads under one GIL; left
    to the scheduler they land on one core or two from run to run, and the
    cross-core GIL hand-offs make a block take 0.30 s or 0.55 s (sizing:
    two-client throughput 367-480 req/s unpinned, 600-630 pinned).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@contextmanager
def all_cpus() -> Iterator[None]:
    """Lift the pin while a probe starts worker processes, which inherit it."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- set-up --------------------------------------------------------------------


class SetupClock:
    """Times the named steps of each set-up round."""

    def __init__(self) -> None:
        self.rounds: List[Dict[str, float]] = []

    def begin_round(self) -> None:
        self.rounds.append({})

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        yield
        current = self.rounds[-1]
        current[name] = current.get(name, 0.0) + time.perf_counter() - started

    def minima(self) -> Dict[str, float]:
        """Each step's fastest round, in first-round order."""
        return {
            name: min(round_[name] for round_ in self.rounds if name in round_)
            for name in self.rounds[0]
        }


# -- op recording --------------------------------------------------------------


class Lane:
    """The ops one closed-loop client issued in one pass, in order."""

    def __init__(self, index: int, tracer: Tracer) -> None:
        self.index = index
        self.tracer = tracer
        self.kinds: List[str] = []
        self.nanos: List[int] = []
        #: ``None`` for a reply, else ``"rejected:<Type>"`` (a ``ReproError``,
        #: the simulated DBMS refusing the statement) or ``"failed:<Type>"``.
        self.outcomes: List[Optional[str]] = []

    def timed(self, kind: str, function: Callable, *args, **kwargs):
        """Call *function*, record it as one op, and return or re-raise."""
        outcome = None
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        except Exception as exc:
            label = "rejected" if isinstance(exc, ReproError) else "failed"
            outcome = f"{label}:{type(exc).__name__}"
            raise
        finally:
            end = time.perf_counter_ns()
            if self.tracer.enabled:
                self.tracer.add(kind, start, end, op=self.index * 1_000_000 + len(self.kinds))
                self.tracer.count(kind)
            self.kinds.append(kind)
            self.nanos.append(end - start)
            self.outcomes.append(outcome)

    def fail_last(self, reason: str) -> None:
        """Mark the op just recorded as failed (it replied, but wrongly)."""
        self.outcomes[-1] = f"failed:{reason}"


class PassRecorder:
    """All lanes of one pass plus the per-chunk wall times and digests."""

    def __init__(self, tracer: Tracer, lanes: int) -> None:
        self.lanes = [Lane(index, tracer) for index in range(lanes)]
        self.chunk_nanos: List[int] = []
        self.chunk_digests: List[str] = []

    def lane(self, index: int = 0) -> Lane:
        return self.lanes[index]

    def kinds(self) -> List[str]:
        return [kind for lane in self.lanes for kind in lane.kinds]

    def nanos(self) -> List[int]:
        return [value for lane in self.lanes for value in lane.nanos]

    def outcomes(self) -> List[Optional[str]]:
        return [value for lane in self.lanes for value in lane.outcomes]


class Chunk:
    """One timed unit of a pass: a label, its workload units, and the call
    that runs it against a :class:`PassRecorder` and returns what it
    produced.  The product is digested after the chunk's clock stops; equal
    digests across passes are a correctness gate."""

    def __init__(
        self,
        label: str,
        units: int,
        run: Callable[[PassRecorder], object],
        digest: Optional[Callable[[object], str]] = None,
    ) -> None:
        self.label = label
        self.units = units
        self.run = run
        self.digest = digest or digest_of


class Workload:
    """What a workload module provides; see ``workloads/``."""

    name = ""
    #: Closed-loop clients the timed phase runs (1 except for the service).
    lanes = 1
    #: Whether a ``ReproError`` from an op is an expected reply (campaign
    #: statements the simulated DBMS rejects) rather than a failure.
    expects_rejections = False

    def __init__(self, seed: int, scale: float, quick: bool, tracer: Tracer, tmp: str) -> None:
        self.seed = seed
        self.scale = scale
        self.quick = quick
        self.tracer = tracer
        self.tmp = tmp

    def setup(self, clock: SetupClock) -> None:
        raise NotImplementedError

    def chunks(self) -> List[Chunk]:
        raise NotImplementedError

    def begin_pass(self, index: int) -> None:
        """Untimed housekeeping before each pass (fresh directories)."""

    def verify(self, passes: Sequence[PassRecorder]) -> None:
        """Workload-specific gates over the finished passes."""

    def inputs(self) -> object:
        """The inputs generated from ``--seed``, as a JSON-serialisable value;
        its digest is printed so two runs can be shown to have had the same."""
        raise NotImplementedError

    def exact_counts(self) -> Dict[str, int]:
        """Counts that must repeat exactly for a seed (printed, and compared
        across runs by the tests)."""
        return {}

    def layer_metrics(self, run: "RunData") -> Dict[str, float]:
        """Per-layer metrics this workload measures (``--trace`` only)."""
        return {}

    def close(self) -> None:
        """Release what set-up opened."""


class RunData:
    """Everything the timed phase produced, handed to ``layer_metrics``."""

    def __init__(self) -> None:
        self.setup_steps: Dict[str, float] = {}
        self.chunks: List[Chunk] = []
        self.passes: List[PassRecorder] = []
        self.traced: Optional[PassRecorder] = None
        self.op_kinds: List[str] = []
        self.op_ms: List[float] = []
        self.chunk_s: List[float] = []
        self.units = 0

    def ms_by_kind(self) -> Dict[str, List[float]]:
        """Op latencies (minimum over passes) grouped by op kind."""
        grouped: Dict[str, List[float]] = {}
        for kind, ms in zip(self.op_kinds, self.op_ms):
            grouped.setdefault(kind, []).append(ms)
        return grouped

    def dialect_op_metrics(self) -> Dict[str, float]:
        """The dialect-boundary numbers of a workload whose ops are dialect
        calls: median execute / explain latency and the ops' share of the
        chunks' wall time."""
        by_kind = self.ms_by_kind()
        return {
            "dialects.execute_ms_p50": percentile(by_kind["dialects.execute"], 0.5),
            "dialects.explain_ms_p50": percentile(by_kind["dialects.explain"], 0.5),
            "dialects.time_share": sum(self.op_ms) / 1e3 / sum(self.chunk_s),
        }


def scaled(count: int, scale: float) -> int:
    """``count`` cut or grown uniformly by ``--seconds / RUN_SECONDS``."""
    return max(1, round(count * scale))


def digest_of(value: object) -> str:
    """Stable digest of a JSON-serialisable value (sets must be sorted)."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- the run -------------------------------------------------------------------


def _run_pass(workload: Workload, chunks: Sequence[Chunk], tracer: Tracer, index: int) -> PassRecorder:
    recorder = PassRecorder(tracer, workload.lanes)
    tracer.pass_index = index
    workload.begin_pass(index)
    gc.collect()
    with tracer.span("bench.pass"):
        for position, chunk in enumerate(chunks):
            tracer.chunk_index = position
            with tracer.span("bench.chunk"):
                started = time.perf_counter_ns()
                product = chunk.run(recorder)
                recorder.chunk_nanos.append(time.perf_counter_ns() - started)
            recorder.chunk_digests.append(chunk.digest(product))
    tracer.chunk_index = None
    return recorder


def _check_alignment(passes: Sequence[PassRecorder], chunks: Sequence[Chunk]) -> None:
    first = passes[0]
    for index, other in enumerate(passes[1:], start=1):
        if other.kinds() != first.kinds():
            raise DeterminismError(f"pass {index} issued a different op sequence than pass 0")
        if other.outcomes() != first.outcomes():
            raise DeterminismError(f"pass {index} had different op outcomes than pass 0")
        for position, chunk in enumerate(chunks):
            if other.chunk_digests[position] != first.chunk_digests[position]:
                raise CheckFailed(
                    f"chunk {chunk.label} produced {other.chunk_digests[position]} in pass "
                    f"{index} but {first.chunk_digests[position]} in pass 0"
                )


def _set_up(workload_class, seed, scale, quick, tracer, tmp_root, clock) -> Workload:
    """Run the set-up rounds, each on a fresh workload object; keeps the last."""
    workload: Optional[Workload] = None
    try:
        for round_index in range(1 if quick else SETUP_ROUNDS):
            if workload is not None:
                workload.close()
            round_tmp = os.path.join(tmp_root, f"setup-{round_index}")
            os.makedirs(round_tmp)
            workload = workload_class(seed, scale, quick, tracer, round_tmp)
            clock.begin_round()
            workload.setup(clock)
    except BaseException:
        if workload is not None:
            workload.close()
        raise
    return workload


def _summarise(run: RunData, expects_rejections: bool) -> Dict[str, object]:
    """Min-over-passes op and chunk times (stored on *run*) and the outcome
    counts of the fixed op list."""
    first = run.passes[0]
    run.op_kinds = first.kinds()
    run.op_ms = [n / 1e6 for n in min_over_passes([p.nanos() for p in run.passes])]
    run.chunk_s = [n / 1e9 for n in min_over_passes([p.chunk_nanos for p in run.passes])]
    if not run.op_ms:
        raise CheckFailed("the workload issued no ops")
    breakdown: Dict[str, int] = {}
    for kind, outcome in zip(run.op_kinds, first.outcomes()):
        if outcome:
            key = f"{kind}:{outcome}"
            breakdown[key] = breakdown.get(key, 0) + 1
    rejected = sum(n for key, n in breakdown.items() if ":rejected:" in key)
    failed = sum(breakdown.values()) - rejected
    if not expects_rejections:
        failed, rejected = failed + rejected, 0
    return {
        "ops_attempted": len(run.op_ms),
        "ops_failed": failed,
        "ops_rejected": rejected,
        "outcomes": breakdown,
    }


def run_workload(
    workload_class,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    import_s: float,
    emit: Callable[[str], None],
) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the result record.

    Raises :class:`CheckFailed` / :class:`DeterminismError` when a gate
    fails, after removing every temporary directory.
    """
    name = workload_class.name
    tracer = Tracer(name)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT_DIR)
    try:
        pin_to_one_cpu()
        wall = [time.perf_counter()]
        calib = [calibrate()]
        clock = SetupClock()
        workload = _set_up(
            workload_class, seed, seconds / metrics.RUN_SECONDS, quick, tracer, tmp_root, clock
        )
        try:
            run = RunData()
            run.setup_steps = clock.minima()
            calib.append(calibrate())
            wall.append(time.perf_counter())

            chunks = run.chunks = workload.chunks()
            run.units = sum(chunk.units for chunk in chunks)
            pass_count = 1 if quick else (TRACE_UNTRACED_PASSES if trace else PASSES)
            gen2_before = gc.get_stats()[2]["collections"]
            cpu_before = time.process_time()
            for index in range(pass_count):
                run.passes.append(_run_pass(workload, chunks, tracer, index))
                calib.append(calibrate())
            cpu_s = time.process_time() - cpu_before
            gen2 = gc.get_stats()[2]["collections"] - gen2_before
            wall.append(time.perf_counter())

            _check_alignment(run.passes, chunks)
            workload.verify(run.passes)
            record = _summarise(run, workload.expects_rejections)
            end_to_end = {
                "setup_s": import_s + sum(run.setup_steps.values()),
                "throughput_per_s": run.units / sum(run.chunk_s),
                "op_p50_ms": percentile(run.op_ms, 0.50),
                "op_p95_ms": percentile(run.op_ms, 0.95),
                "peak_rss_mb": peak_rss_mb(),
            }

            layer: Dict[str, float] = {}
            if trace:
                tracer.enabled = True
                run.traced = _run_pass(workload, chunks, tracer, pass_count)
                tracer.enabled = False
                if run.traced.kinds() != run.op_kinds:
                    raise DeterminismError("the traced pass issued a different op sequence")
                layer.update(workload.layer_metrics(run))
                calib.append(calibrate())
                untraced_wall = min(sum(p.chunk_nanos) for p in run.passes)
                layer.update({
                    "proc.import_s": import_s,
                    "proc.cpu_ms_per_unit": cpu_s * 1e3 / (run.units * pass_count),
                    "proc.gc_gen2_collections": float(gen2),
                    "host.calib_ms": min(calib),
                    "host.calib_drift": max(calib) / min(calib) - 1.0,
                    "trace.overhead_share": sum(run.traced.chunk_nanos) / untraced_wall - 1.0,
                })
                trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
                tracer.write(trace_path)
                emit(f"{name}: {len(tracer.spans)} spans written to {os.path.relpath(trace_path)}")
                emit(f"{name}: trace closure {trace_closure(tracer, workload.lanes):.4f} "
                     "(sum of span self times / traced pass wall x lanes)")

            wall.append(time.perf_counter())
            emit(f"{name}: wall set-up {wall[1] - wall[0]:.1f} s ({len(clock.rounds)} rounds), "
                 f"passes {wall[2] - wall[1]:.1f} s, checks and trace {wall[3] - wall[2]:.1f} s")
            record.update({
                "workload": name,
                "seed": seed,
                "quick": quick,
                "passes": pass_count,
                "units_per_pass": run.units,
                "setup_steps": run.setup_steps,
                "inputs": digest_of(workload.inputs()),
                "exact_counts": workload.exact_counts(),
                "calib_ms": min(calib),
                "calib_drift": max(calib) / min(calib) - 1.0,
                "end_to_end": end_to_end,
                "per_layer": layer,
            })
            return record
        finally:
            workload.close()
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def trace_closure(tracer: Tracer, lanes: int) -> float:
    """Sum of all span self times over the traced pass's wall time x lanes
    (1.0 when every nanosecond of the pass is attributed exactly once)."""
    root = next(row for row in tracer.spans if row[2] == "bench.pass")
    wall = root[8] - root[7]
    return sum(tracer.self_times().values()) / (wall * lanes)
