"""Argument parsing, the per-workload subprocesses, printing, ``--selfcheck``."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from e2ebench import harness, metrics, workloads
from e2ebench.stats import DeterminismError, quartile_spread

RUN_PY = os.path.join(harness.HERE, "run.py")
NOISE_PATH = os.path.join(harness.HERE, "NOISE.json")
#: Prefix of the line carrying a run's full record to a parent process.
DETAIL_PREFIX = "detail: "


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS), default=None,
                        help="run one workload in this process (default: all four, "
                             "each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="derives every generator seed, draw order and parameter")
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="timed-phase length the chunk lists are cut for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: add a traced pass, print the per-layer metrics, write spans")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one pass, same code paths and checks; not comparable")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5, default=0, metavar="N",
                        help="two interleaved sets of N (>= 5) runs; writes NOISE.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json content and exit")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    options = parse(argv)
    if options.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if options.selfcheck:
        return selfcheck(options)
    if options.workload is not None:
        return run_one(options)
    return run_all(options)


# -- one workload, in this process ------------------------------------------------


def run_one(options: argparse.Namespace) -> int:
    name = options.workload
    workload_class = workloads.load(name)
    import_s = harness.process_age_s()
    host = harness.host_fingerprint()
    print("host: " + " ".join(f"{key}={value}" for key, value in host.items()), flush=True)
    try:
        record = harness.run_workload(
            workload_class, options.seed, options.seconds, bool(options.trace),
            options.quick, import_s, lambda line: print(line, flush=True),
        )
    except (harness.CheckFailed, DeterminismError) as exc:
        sys.stderr.write(f"{name}: CHECK FAILED: {exc}\n")
        return 1
    record["host"] = host
    print_record(record, bool(options.trace))
    print(DETAIL_PREFIX + json.dumps(record, sort_keys=True))
    declared = metrics.PER_LAYER if options.trace else metrics.END_TO_END
    values = record["per_layer"] if options.trace else record["end_to_end"]
    print(json.dumps({
        "correct": True,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            row[0]: {"value": values.get(row[0], 0.0), "unit": row[1]} for row in declared
        },
    }))
    return 0


def print_record(record: Dict[str, object], trace: bool) -> None:
    name = record["workload"]
    label = "  [--quick: NOT COMPARABLE]" if record["quick"] else ""
    print(f"{name}: seed={record['seed']} passes={record['passes']} ops={record['ops_attempted']} "
          f"units_per_pass={record['units_per_pass']} calib_ms={record['calib_ms']:.2f} "
          f"calib_drift={record['calib_drift']:.3f}{label}")
    for step, seconds in record["setup_steps"].items():
        print(f"{name}/setup_step {step} = {seconds:.4f} s")
    for metric, unit, _, _ in metrics.END_TO_END:
        print(f"{name}/{metric} = {record['end_to_end'][metric]:.6g} {unit}")
    print(f"{name}/ops_attempted = {record['ops_attempted']}")
    print(f"{name}/ops_failed = {record['ops_failed']}")
    print(f"{name}/ops_rejected = {record['ops_rejected']}")
    for key, count in sorted(record["outcomes"].items()):
        print(f"{name}/outcome {key} = {count}")
    print(f"{name}/inputs = {record['inputs']}")
    for key, count in sorted(record["exact_counts"].items()):
        print(f"{name}/count {key} = {count}")
    if trace:
        measured = record["per_layer"]
        for metric, unit, _, _ in metrics.PER_LAYER:
            if metric in measured:
                print(f"{name}/{metric} = {measured[metric]:.6g} {unit}")
            else:
                print(f"{name}/{metric} = 0 {unit}  (layer not on this workload's path)")


# -- all workloads, one subprocess each -------------------------------------------


def spawn(name: str, options: argparse.Namespace, seed: Optional[int] = None,
          echo: bool = True) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; returns its full record."""
    command = [
        sys.executable, RUN_PY, "--workload", name,
        "--seed", str(options.seed if seed is None else seed),
        "--seconds", str(options.seconds), "--trace", str(options.trace),
    ]
    if options.quick:
        command.append("--quick")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    record = None
    for line in completed.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            record = json.loads(line[len(DETAIL_PREFIX):])
        elif echo and not line.startswith("{"):
            print(line, flush=True)
    if completed.returncode != 0 or record is None:
        raise SystemExit(f"{name}: the workload process exited with {completed.returncode}")
    return record


def run_all(options: argparse.Namespace) -> int:
    started = time.perf_counter()
    records = [spawn(name, options) for name in metrics.WORKLOADS]
    print(f"all workloads: {time.perf_counter() - started:.1f} s wall")
    print(json.dumps({
        "correct": True,
        "attempted": sum(record["ops_attempted"] for record in records),
        "failed": sum(record["ops_failed"] for record in records),
        "metrics": {
            f"{record['workload']}/{metric}": {"value": record["end_to_end"][metric], "unit": unit}
            for record in records
            for metric, unit, _, _ in metrics.END_TO_END
        },
    }))
    return 0


# -- selfcheck --------------------------------------------------------------------


def selfcheck(options: argparse.Namespace) -> int:
    """Two interleaved sets of runs of this commit, seeds ``seed .. seed+N-1``
    in both.  Prints and writes, per workload and end-to-end metric, both
    medians, their difference, each set's quartile spread and the bound.

    The command fails when a second median is worse than the first by more
    than the bound — the driver's rule for two sets of the same code.  A
    difference above half the bound is marked: such a metric needs more
    chunks per pass or a wider bound.  Spreads are informative here; the
    driver takes them over ten runs, where two disturbed runs leave the
    quartiles alone, and with five they do not.
    """
    runs = max(5, options.selfcheck)
    samples: Dict[str, Dict[str, List[List[float]]]] = {
        name: {metric: [[], []] for metric, _, _, _ in metrics.END_TO_END}
        for name in metrics.WORKLOADS
    }
    drift: List[float] = []
    started = time.perf_counter()
    for index in range(runs):
        for side in (0, 1):
            for name in metrics.WORKLOADS:
                record = spawn(name, options, seed=options.seed + index, echo=False)
                drift.append(record["calib_drift"])
                for metric, value in record["end_to_end"].items():
                    samples[name][metric][side].append(value)
                print(f"selfcheck run {index + 1}/{runs} set {'AB'[side]} {name}: "
                      + " ".join(f"{m}={v:.5g}" for m, v in record["end_to_end"].items()),
                      flush=True)
    rows = []
    for name in metrics.WORKLOADS:
        for metric, unit, better, bound in metrics.END_TO_END:
            first, second = samples[name][metric]
            median_a, median_b = statistics.median(first), statistics.median(second)
            worse = (median_b - median_a) / median_a * (1 if better == "lower" else -1)
            row = {
                "workload": name, "metric": metric, "unit": unit, "bound": bound,
                "median_a": median_a, "median_b": median_b,
                "relative_difference": abs(median_b - median_a) / median_a,
                "b_worse_by": worse,
                "spread_a": quartile_spread(first), "spread_b": quartile_spread(second),
                "within_bound": worse <= bound,
                "over_half_bound": abs(median_b - median_a) / median_a > bound / 2,
            }
            rows.append(row)
            verdict = "OUTSIDE" if not row["within_bound"] else (
                "over half the bound" if row["over_half_bound"] else "ok")
            print(f"{name}/{metric}: A={median_a:.5g} B={median_b:.5g} {unit} "
                  f"diff={row['relative_difference']:.2%} bound={bound:.0%} "
                  f"spread A={row['spread_a']:.2%} B={row['spread_b']:.2%}  {verdict}")
    passed = all(row["within_bound"] for row in rows)
    report = {
        "host": harness.host_fingerprint(),
        "runs_per_set": runs,
        "seeds": list(range(options.seed, options.seed + runs)),
        "seconds": options.seconds,
        "wall_s": time.perf_counter() - started,
        "max_calib_drift": max(drift),
        "all_within_bounds": passed,
        "rows": rows,
    }
    with open(NOISE_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"selfcheck: wrote {os.path.relpath(NOISE_PATH)}; "
          f"{'every pair within its bound' if passed else 'SOME PAIRS OUTSIDE THEIR BOUND'}")
    return 0 if passed else 1
