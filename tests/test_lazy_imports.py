"""Importing the package loads nothing that only a path or grid solve needs.

numpy loads numpy.fft lazily (numpy >= 2), and the path eigenbasis of
graphs.PathEigenbasis reaches it at call time, so a program that never
solves a relaxation on a path or a radius-1 grid never loads it.  The check
runs in a fresh interpreter: the test process has imported far more than
the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import numpy
print("numpy.fft" in sys.modules)
import modrec, modrec.cli
print("numpy.fft" in sys.modules)
modrec.solve_ucqp(numpy.ones(4, dtype=complex), modrec.path_graph(4), 1.0)
print("numpy.fft" in sys.modules)
"""


def test_import_leaves_numpy_fft_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    by_numpy, by_import, by_path_solve = out.stdout.split()
    if by_numpy == "True":
        pytest.skip("this numpy imports numpy.fft eagerly")
    assert by_import == "False"
    assert by_path_solve == "True"  # the probe can see the module load
