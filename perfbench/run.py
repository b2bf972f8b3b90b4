"""Benchmark entry point for the topogas package.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload repetition runs in a fresh worker process (perfbench/worker.py)
that drives the package from the checkout's src/ through its CLI with a
generated config.  With --trace 0 the workload is repeated for --seconds
seconds and the end-to-end metrics are medians over repetitions; set-up time
is also sampled in extra processes that stop at the first run.  With
--trace 1 the workload runs once plain and once traced, and the per-layer
metrics come from the traced run's spans.  Outputs are checked after every
run; the last line printed is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from checks import check_run, final_accuracies
from layers import src_lines
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
# BLAS threads per worker; at most nproc (2 on the reference box).  One
# thread keeps timings steady on a shared machine at these matrix sizes.
BLAS_THREADS = 1
SETUP_SAMPLES = 5
# Every worker must end by this many seconds after start, so that an
# invocation exits within 180 s even when the program hangs.
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not run a workload at all."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload: str, seed: int, mode: str, tag: str, deadline: float) -> tuple:
    """Run one worker process that must end by `deadline`; returns (report, its directory)."""
    work = WORK / tag
    work.mkdir(parents=True)
    command = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--dir", str(work), "--mode", mode]
    spawned = time.monotonic()
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(command, cwd=ROOT, env=worker_env(), stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(deadline - spawned, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {tag} timed out; see {work / 'worker.log'}") from exc
    report_path = work / "report.json"
    if proc.returncode != 0 or not report_path.is_file():
        raise BenchError(f"worker {tag} exited with {proc.returncode}; "
                         f"see {work / 'worker.log'}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["spawned"] = spawned
    return report, work


def checked(workload, seed: int, report: dict, work: Path, reference: str | None) -> tuple:
    """(results.csv text, runs attempted, runs failed) for one repetition."""
    text, problems = check_run(work, report, workload, seed)
    if reference is not None and text != reference:
        for run in problems:
            problems[run].append("results.csv differs from the reference repetition")
    for run, found in problems.items():
        for problem in found:
            print(f"check failed: {run[0]} seed {run[1]}: {problem}", file=sys.stderr)
    return text, len(problems), sum(1 for found in problems.values() if found)


def measure(name: str, seed: int, seconds: int, deadline: float) -> tuple:
    """Untraced repetitions for `seconds`; returns (end-to-end metrics, attempted, failed)."""
    workload = WORKLOADS[name]
    run_worker(name, seed, "setup", "warmup", deadline)  # compiles bytecode, fills the page cache
    setups = []
    for i in range(SETUP_SAMPLES):
        report, _ = run_worker(name, seed, "setup", f"setup{i}", deadline)
        setups.append(report["first_run_start"] - report["spawned"])

    reps, reference, attempted, failed = [], None, 0, 0
    start = time.monotonic()
    while True:
        report, work = run_worker(name, seed, "plain", f"rep{len(reps)}", deadline)
        text, tried, bad = checked(workload, seed, report, work, reference)
        reference = text if reference is None else reference
        attempted, failed = attempted + tried, failed + bad
        if report["first_run_start"] is None:
            raise BenchError(f"{name} started no run; see {work / 'worker.log'}")
        setups.append(report["first_run_start"] - report["spawned"])
        reps.append(report)
        last = report["window_end"] - report["spawned"]
        if time.monotonic() - start + last > seconds:
            break

    walls = [r["window_end"] - r["spawned"] for r in reps]
    sessions = len(workload.runs(seed)) * workload.sessions
    joint, old = final_accuracies(reference, workload)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "run_s.p50": (statistics.median(t for r in reps for t in r["run_s"]), "s"),
        "sessions_per_s": (statistics.median(sessions / w for w in walls), "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "final_joint_acc": (joint, "ratio"),
        "final_old_acc": (old, "ratio"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"{name}: {len(reps)} repetitions of {len(workload.runs(seed))} runs, "
          "wall " + " ".join(f"{w:.3f}" for w in walls) + f" s; {len(setups)} set-up samples")
    print(f"  failed_ratio = {failed / attempted!r} ratio")
    return metrics, attempted, failed


def trace(name: str, seed: int, deadline: float) -> tuple:
    """One plain and one traced repetition; returns (per-layer metrics, attempted, failed)."""
    workload = WORKLOADS[name]
    plain, plain_work = run_worker(name, seed, "plain", "plain", deadline)
    reference, attempted, failed = checked(workload, seed, plain, plain_work, None)
    traced, traced_work = run_worker(name, seed, "trace", "trace", deadline)
    _, tried, bad = checked(workload, seed, traced, traced_work, reference)
    attempted, failed = attempted + tried, failed + bad

    metrics = {key: tuple(value) for key, value in traced["per_layer"].items()}
    metrics.update({key: (n, "lines") for key, n in src_lines(ROOT).items()})

    def window(report):
        return report["window_end"] - report["window_start"]

    metrics["trace.overhead_ratio"] = (window(traced) / window(plain), "ratio")
    metrics["harness.files_written"] = (traced["files_written"], "count")
    metrics["harness.bytes_written"] = (traced["bytes_written"], "B")
    metrics["neural_gas.checkpoint_bytes"] = (traced["checkpoint_bytes"], "B")
    print(f"{name}: traced {window(traced):.3f} s, plain {window(plain):.3f} s, "
          f"spans written to {traced_work / 'spans.tsv'}")
    return metrics, attempted, failed


def expected_metrics(traced: bool) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    if not (ROOT / "src" / "topogas" / "__init__.py").is_file():
        print(f"no topogas package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} CPUs")
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.trace:
            metrics, attempted, failed = trace(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                                 deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    names = expected_metrics(bool(args.trace))
    if sorted(names) != sorted(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    for key in names:
        value, unit = metrics[key]
        print(f"  {key} = {value!r} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]}
                          for key in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
