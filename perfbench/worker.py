"""Run one workload once, in a fresh process, and write report.json into --dir.

The workload is the CLI on the generated config (the path users take),
followed by reloading every emitted graph checkpoint.  Modes:
  plain  time each run_method call; no other instrumentation
  trace  wrap every layer's public functions and write spans.tsv
  setup  stop at the first run_method call (set-up time only)

Run by run.py; usage: python3 perfbench/worker.py --workload NAME --seed N
--dir DIR --mode plain|trace|setup
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(Exception):
    """Raised at the first run_method call in setup mode."""


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reload_checkpoints(graph_dir: Path, NGGraph) -> tuple:
    """Load, check and re-serialize every checkpoint; (count, bytes, problems)."""
    count, size, problems = 0, 0, []
    for path in sorted(graph_dir.glob("*.ngtxt")) if graph_dir.is_dir() else []:
        count += 1
        text = path.read_text(encoding="utf-8")
        size += len(text.encode("utf-8"))
        try:
            graph = NGGraph.load(path)
            graph.check_invariants()
        except Exception as exc:  # any failure to reload is a failed output check
            problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
            continue
        if graph.to_text() != text:
            problems.append(f"{path.name}: re-serialized text differs")
    return count, size, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import topogas
    from topogas import cli, harness
    from topogas.neural_gas import NGGraph
    from tracer import Tracer, maxrss_mb
    from workloads import WORKLOADS

    if Path(topogas.__file__).resolve().parent != ROOT / "src" / "topogas":
        print(f"topogas imported from {topogas.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = Path(args.dir)
    out = work / "out"
    config_path = work / "experiment.cfg"
    config_path.write_text(workload.config_text(args.seed), encoding="utf-8")
    report = {"mode": args.mode}

    if args.mode == "setup":
        def stop(*_args, **_kwargs):
            report["first_run_start"] = time.monotonic()
            raise SetupDone
        harness.run_method = stop
        try:
            cli.main(["--config", str(config_path), "--out", str(out), "--quiet"])
        except SetupDone:
            pass
        (work / "report.json").write_text(json.dumps(report), encoding="utf-8")
        return 0 if "first_run_start" in report else 1

    tracer = Tracer()
    layers.instrument(tracer, full=args.mode == "trace")
    report["window_start"] = time.monotonic()
    try:
        report["status"] = cli.main(["--config", str(config_path), "--out", str(out),
                                     "--quiet"])
    except Exception:  # a raising run is reported as failed, not fatal
        report["status"] = "raised"
        report["error"] = traceback.format_exc()
    count, size, problems = reload_checkpoints(out / "graphs", NGGraph)
    report["window_end"] = time.monotonic()
    report["cpu_s"] = cpu_s()
    report["maxrss_mb"] = maxrss_mb()
    report["checkpoints"] = count
    report["checkpoint_bytes"] = size
    report["checkpoint_problems"] = problems

    names, _, durations, _, _ = tracer.arrays()
    run_spans = names == tracer.id_of("protocol", "run_method")
    report["run_s"] = durations[run_spans].tolist()
    starts = [t for t, run in zip(tracer.start, run_spans) if run]
    report["first_run_start"] = min(starts, default=None)
    report["files_written"], report["bytes_written"] = layers.written_files(out)
    if args.mode == "trace":
        window = report["window_end"] - report["window_start"]
        report["per_layer"] = layers.per_layer_metrics(tracer, window)
        tracer.write(work / "spans.tsv")
    (work / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
