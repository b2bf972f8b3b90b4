"""Output digests: every file a run writes is pinned bit for bit across commits.

Each config below runs through the CLI in a subprocess with one BLAS thread
and OpenBLAS's Haswell kernels, the two settings that move bits on one
machine; the SHA-256 of every output file (results.csv, summary.csv, each
confusion file and each .ngtxt checkpoint) must equal the one recorded in
tests/data/output_digests.txt, which also records numpy's version, and every
checkpoint must load, pass check_invariants and re-emit its bytes.  A change
meant to move results regenerates the file with

    PYTHONPATH=src python tests/test_output_digests.py --write

and names the files that changed, and why, in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topogas.neural_gas import NGGraph

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "output_digests.txt"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}
EMIT = "emit_graphs = true\nemit_confusion = true\n"
ALL_METHODS = "ft,distill,exemplar_anchor,topic_al,topic_al_mml,topic_al_mml_dl,joint"
# Keys appended to the default template.  desk_one is the one-method,
# several-seed shape whose streams live one seed at a time; paper is the
# paper's shape (60 + 40 classes, 5-way 5-shot sessions, 400 nodes).
CONFIGS = {
    "desk_all": EMIT + f"methods = {ALL_METHODS}\nseeds = 1,2\n",
    "desk_one": EMIT + "methods = topic_al_mml\nseeds = 1,2\n",
    "paper": EMIT + """methods = topic_al_mml
seeds = 1
base_classes = 60
new_classes = 40
way = 5
shot = 5
input_dim = 64
hidden_dim = 128
feature_dim = 32
train_per_base = 200
test_per_class = 100
node_budget = 400
base_epochs = 10
inc_lr = 0.05
""",
}


def run_configs(root: Path) -> dict:
    """{config/relative path: SHA-256} of every file the CONFIGS write under root.

    The runs go in parallel, one process each; each fails loudly on a
    non-zero exit.
    """
    from topogas.harness import default_config_text

    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    procs = {}
    for name, extra in CONFIGS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(default_config_text() + extra, encoding="utf-8")
        procs[name] = subprocess.Popen(
            [sys.executable, "-m", "topogas.cli", "--config", str(cfg),
             "--out", str(root / name), "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    outputs = {name: proc.communicate(timeout=600)[0] for name, proc in procs.items()}
    for name, proc in procs.items():
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{outputs[name]}"
    return {f"{name}/{path.relative_to(root / name).as_posix()}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for name in CONFIGS for path in sorted((root / name).rglob("*")) if path.is_file()}


def header() -> list:
    return [f"numpy {np.__version__}"] + [f"{key} {value}" for key, value in BLAS_ENV.items()]


def read_digests() -> tuple:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    settings = [line for line in lines if line and not line.startswith("#") and "  " not in line]
    files = dict(reversed(line.split("  ", 1)) for line in lines if "  " in line)
    return settings, files


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple:
    """The CONFIGS' output root and the digests of its files, from one set of runs."""
    root = tmp_path_factory.mktemp("runs")
    return root, run_configs(root)


def test_outputs_match_the_committed_digests(runs):
    settings, expected = read_digests()
    if settings[0] != header()[0]:
        pytest.skip(f"digests were made with {settings[0]}, this is {header()[0]}")
    assert settings == header()
    actual = runs[1]
    differ = sorted(name for name in expected.keys() & actual.keys()
                    if expected[name] != actual[name])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"{len(differ)} files differ: {differ}; missing: {missing}; not recorded: {extra}")



def test_every_written_checkpoint_loads_checks_and_reemits_its_bytes(runs):
    root, digests = runs
    paths = sorted(root.rglob("*.ngtxt"))
    assert len(paths) == sum(name.endswith(".ngtxt") for name in digests) > 0
    for path in paths:
        graph = NGGraph.load(path)
        graph.check_invariants()
        assert graph.to_text().encode("utf-8") == path.read_bytes(), path.relative_to(root)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_digests.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_configs(Path(tmp))
    DIGESTS.write_text("\n".join(
        ["# SHA-256 of every output file; regenerate with"
         " PYTHONPATH=src python tests/test_output_digests.py --write"]
        + header() + [f"{digest}  {name}" for name, digest in digests.items()]) + "\n",
        encoding="utf-8")
