"""The traced benchmark in perfbench/ patches package functions by name.

Deleting or renaming one of them makes `layers.instrument` raise KeyError,
so this check fails in the test suite rather than only in a traced run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTRUMENT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
import topogas
from tracer import Tracer
assert topogas.__file__.startswith({src!r}), topogas.__file__
layers.instrument(Tracer(), full=True)
"""


def test_traced_benchmark_finds_every_function_it_patches():
    script = INSTRUMENT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
