"""Importing the package: OpenBLAS on one thread unless the caller says
otherwise.

Each test imports the package in a fresh process and counts its OS threads;
OpenBLAS starts its workers as numpy loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")

SRC = str(Path(__file__).resolve().parents[1] / "src")
# the variables OpenBLAS reads its thread count from
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
COUNT = "len(os.listdir('/proc/self/task'))"


def run(code: str, **variables: str) -> list:
    """The printed values of code, run in a fresh process whose environment
    has no BLAS thread variable but those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", "import os\n" + code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_import_loads_blas_on_one_thread_and_restores_the_environment():
    threads, leaked = run(f"import dunklsym\nprint({COUNT}, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert threads == "1"
    assert leaked == "False"


@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_an_explicit_thread_count_is_honoured(variable):
    # OpenBLAS starts no more threads than the process may run on
    want = min(2, len(os.sched_getaffinity(0)))
    threads, value = run(f"import dunklsym\nprint({COUNT}, os.environ[{variable!r}])",
                         **{variable: "2"})
    assert int(threads) == want
    assert value == "2"


def test_numpy_imported_first_keeps_its_blas():
    before, after = run(f"import numpy\nprint({COUNT})\nimport dunklsym\nprint({COUNT})")
    assert before == after
