"""Importing the package loads only the package itself.  Importing its
modules loads nothing that only a path or grid solve needs, and nothing
beyond numpy and the standard library.

numpy loads numpy.fft lazily (numpy >= 2), and the path eigenbasis of
graphs.PathEigenbasis reaches it at call time, so a program that never
solves a relaxation on a path or a radius-1 grid never loads it.  Every
top-level module that importing the modules adds beyond numpy is the
package's own or in the standard library: the import time is the
benchmark's setup time, and test-only dependencies such as scipy must never
load.  Importing starts no thread and loads no thread pool: modrec.blocks
reaches concurrent.futures at the first pass of two blocks, and a solve or
a denoise of one block starts no thread.  The checks run in a fresh
interpreter: the test process has imported far more than the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys, threading
import numpy
print("numpy.fft" in sys.modules)
before = {name.partition(".")[0] for name in sys.modules}
threads = threading.active_count()
import modrec.baselines, modrec.blocks, modrec.certificate, modrec.circle, modrec.cli, modrec.fileio
import modrec.graphs, modrec.grid, modrec.harness, modrec.interpolate, modrec.knn, modrec.linalg
import modrec.qcqp, modrec.unwrap
print("numpy.fft" in sys.modules)
print(",".join(sorted({name.partition(".")[0] for name in sys.modules} - before)))
print(threading.active_count() - threads, "concurrent.futures" in sys.modules)
modrec.baselines.solve_ucqp(numpy.ones(4, dtype=complex), modrec.graphs.path_graph(4), 1.0)
print("numpy.fft" in sys.modules)
spec = modrec.harness.SyntheticSpec("example1", 1, 64, 0.1, 0)
modrec.knn.denoise(modrec.harness.generate(spec).noisy_mod, 5)
print(threading.active_count() - threads, "concurrent.futures" in sys.modules)
"""

PACKAGE_PROBE = """
import sys
before = set(sys.modules)
import modrec
print(",".join(sorted(set(sys.modules) - before)))
"""


def _probe(code=PROBE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_package_import_loads_only_the_package():
    assert _probe(PACKAGE_PROBE) == ["modrec"]


def test_import_adds_only_stdlib_and_the_package():
    added = set(_probe()[2].split(","))
    assert "modrec" in added and "scipy" not in added
    assert added - {"modrec"} <= sys.stdlib_module_names, added - {"modrec"} - sys.stdlib_module_names


def test_import_starts_no_thread_and_loads_no_pool():
    # The stdlib check above passes with concurrent.futures loaded, so the
    # pool machinery of modrec.blocks is checked by name.
    assert _probe()[3:5] == ["0", "False"]


def test_a_path_solve_and_a_denoise_of_one_block_start_no_thread():
    assert _probe()[-2:] == ["0", "False"]


def test_import_leaves_numpy_fft_unloaded():
    by_numpy, by_import, _, _, _, by_path_solve, _, _ = _probe()
    if by_numpy == "True":
        pytest.skip("this numpy imports numpy.fft eagerly")
    assert by_import == "False"
    assert by_path_solve == "True"  # the probe can see the module load
