"""Output checks on one workload run's files; every problem is charged to a (method, seed) run."""

from pathlib import Path

RESULTS_HEADER = "method,seed,session,joint_acc,old_acc,new_acc"
ROW_SUM_TOLERANCE = 1e-4  # confusion entries are written with six decimals


def _run_of(filename: str):
    """(method, seed) from '<method>_<seed>_<session>.<ext>'; method names contain '_'."""
    method, seed, _ = Path(filename).stem.rsplit("_", 2)
    return method, int(seed)


def _charge(problems: dict, run, message: str) -> None:
    """Record a problem against run, or against every run when it names none of them."""
    for target in ([run] if run in problems else list(problems)):
        problems[target].append(message)


def check_results(text: str, workload, problems: dict) -> None:
    """One results.csv row per run and session, every accuracy in [0, 1]."""
    rows = set()
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        _charge(problems, None, "results.csv missing or has a wrong header")
        return
    for line in lines[1:]:
        try:
            method, run_seed, session, *accs = line.split(",")
            key = (method, int(run_seed), int(session))
            values = [float(a) for a in accs]
        except ValueError:
            _charge(problems, None, f"malformed results row {line!r}")
            continue
        run = key[:2]
        if run not in problems:
            _charge(problems, run, f"unexpected results row {line!r}")
            continue
        if key in rows:
            problems[run].append(f"duplicate results row for session {key[2]}")
        if len(values) != 3 or not all(0.0 <= v <= 1.0 for v in values):
            problems[run].append(f"accuracy outside [0, 1]: {line!r}")
        rows.add(key)
    for run in problems:
        sessions = sorted(s for (m, sd, s) in rows if (m, sd) == run)
        if sessions != list(range(1, workload.sessions + 1)):
            problems[run].append(f"sessions {sessions} in results.csv, expected 1..{workload.sessions}")


def check_confusion(confusion_dir: Path, workload, seed: int, problems: dict) -> None:
    """Every confusion row sums to 1, or to 0 for a class with no test samples."""
    for run in workload.runs(seed):
        for session in range(1, workload.sessions + 1):
            path = confusion_dir / f"{run[0]}_{run[1]}_{session}.txt"
            if not path.is_file():
                problems[run].append(f"missing {path.name}")
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            try:
                classes = int(lines[4].split()[1])
                matrix = [[float(v) for v in line.split()] for line in lines[5:]]
            except (IndexError, ValueError):
                problems[run].append(f"{path.name}: malformed confusion file")
                continue
            if len(matrix) != classes or any(len(row) != classes for row in matrix):
                problems[run].append(f"{path.name}: not a {classes}x{classes} matrix")
                continue
            for i, row in enumerate(matrix):
                total = sum(row)
                if abs(total - 1.0) > ROW_SUM_TOLERANCE and total != 0.0:
                    problems[run].append(f"{path.name}: row {i} sums to {total}")


def check_run(work: Path, report: dict, workload, seed: int) -> tuple:
    """Check one worker's outputs; returns (results.csv text, problems per run)."""
    problems = {run: [] for run in workload.runs(seed)}
    if report["status"] != 0:
        _charge(problems, None, f"workload exited with status {report['status']}")
    out = work / "out"
    results = out / "results.csv"
    text = results.read_text(encoding="utf-8") if results.is_file() else ""
    check_results(text, workload, problems)
    if workload.emits_files:
        check_confusion(out / "confusion", workload, seed, problems)
        for problem in report["checkpoint_problems"]:
            _charge(problems, _run_of(problem.split(":", 1)[0]), problem)
        written = {_run_of(path.name) for path in (out / "graphs").glob("*.ngtxt")}
        for run in problems:
            if run not in written:
                problems[run].append("no graph checkpoint written")
    return text, problems


def final_accuracies(results_text: str, workload) -> tuple:
    """Mean (joint, old) accuracy of the final session over the workload's runs."""
    rows = [line.split(",") for line in results_text.splitlines()[1:]]
    finals = [r for r in rows if len(r) == 6 and r[2] == str(workload.sessions)]
    if not finals:
        return 0.0, 0.0
    joint = sum(float(r[3]) for r in finals) / len(finals)
    old = sum(float(r[4]) for r in finals) / len(finals)
    return joint, old
