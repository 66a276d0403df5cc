"""modrec.blocks runs a pass in fixed blocks on several threads.  The passes
routed through it return the bytes of one serial call, whatever the block
size and the number of workers; a block's exception reaches the caller once
every started block has returned; and no call waits on a helper that cannot
run."""

import contextlib
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import random_mod1_field, random_planted
from modrec import blocks
from modrec.grid import GridField, UniformGrid
from modrec.harness import SyntheticSpec, generate, keyed_normals, metrics
from modrec.knn import choose_k_practical, denoise
from modrec.unwrap import unwrap_multid


@contextlib.contextmanager
def blocked(block, workers):
    """BLOCK and WORKERS set for the duration, with a pool of their own."""
    saved = blocks.BLOCK, blocks.WORKERS, blocks._pool
    blocks.BLOCK, blocks.WORKERS, blocks._pool = block, workers, None
    try:
        yield
    finally:
        pool = blocks._pool
        blocks.BLOCK, blocks.WORKERS, blocks._pool = saved
        if pool is not None:
            pool[1].shutdown(wait=False, cancel_futures=True)


SERIAL = (sys.maxsize, 1)  # one block, run by the caller alone
# Blocks of a few elements, or of one or a few rows, run by the caller alone
# and by the caller with two helpers.
SETTINGS = [(1, 1), (5, 1), (5, 3), (13, 3), (64, 3)]
# Sizes that no block size above divides, and a 2-D grid of fewer than 64
# points; rows hold 9 and 25 points.
GRIDS = [(1, 37), (2, 9), (2, 7), (3, 5)]


def assert_same_as_serial(run):
    with blocked(*SERIAL):
        want = run()
    for setting in SETTINGS:
        with blocked(*setting):
            assert run() == want, setting
    return want


def _returns_within(call, seconds=30.0):
    """call() run on a daemon thread returns within the time limit."""
    done = threading.Event()
    worker = threading.Thread(target=lambda: (call(), done.set()), daemon=True)
    worker.start()
    worker.join(seconds)
    return done.is_set()


@pytest.mark.parametrize("n", [1, 4, 37, 200])
def test_keyed_normals_do_not_depend_on_blocks(n):
    assert_same_as_serial(lambda: keyed_normals(5, n).tobytes())


@pytest.mark.parametrize("d, m", GRIDS)
def test_generate_does_not_depend_on_blocks(d, m):
    spec = SyntheticSpec(random_planted(d, np.random.default_rng(d)), d, m, 0.3, 11)

    def run():
        data = generate(spec)
        return data.truth.values.tobytes(), data.noisy_mod.values.tobytes()

    assert_same_as_serial(run)


@pytest.mark.parametrize("d, m", GRIDS)
def test_denoise_does_not_depend_on_blocks(d, m):
    grid = UniformGrid(d, m)
    rng = np.random.default_rng(40 + d)
    noisy = random_mod1_field(grid, rng)
    # A checkerboard of half turns: every box of an even count cancels.
    antipodal = GridField(grid, 0.5 * (np.indices(grid.shape).sum(axis=0) % 2), kind="mod1")
    # k = 1, the 2^d-point boxes at the corners, the 3^d box of every
    # interior point, the practical rule, and a k whose boundary shell is
    # most of the grid.
    ks = (1, 2, 3 ** d, choose_k_practical(grid.n, d), grid.n // 2)
    cancelled = 0
    for f in (noisy, antipodal):
        for k in ks:
            def run():
                out = denoise(f, k)
                return out.ghat.values.tobytes(), out.zero_resultants, out.radius_histogram

            cancelled += assert_same_as_serial(run)[1]
    assert cancelled > 0


@pytest.mark.parametrize("d, m", GRIDS)
def test_metrics_do_not_depend_on_blocks(d, m):
    data = generate(SyntheticSpec(random_planted(d, np.random.default_rng(d)), d, m, 0.1, 3))
    ghat = denoise(data.noisy_mod, 3 ** d).ghat
    ftilde = unwrap_multid(ghat).field
    assert_same_as_serial(lambda: repr(metrics(ftilde, ghat, data.noisy_mod, data.truth)))


@pytest.mark.parametrize("d, m", [(1, 3 * 65536 + 17), (2, 300)])
def test_fields_of_several_real_blocks_do_not_depend_on_workers(d, m):
    assert blocks.BLOCK == 65536 and m ** d > blocks.BLOCK
    spec = SyntheticSpec(random_planted(d, np.random.default_rng(d)), d, m, 0.12, 9)

    def run():
        data = generate(spec)
        den = denoise(data.noisy_mod, choose_k_practical(data.noisy_mod.grid.n, d))
        ftilde = unwrap_multid(den.ghat).field
        met = metrics(ftilde, den.ghat, data.noisy_mod, data.truth)
        return data.noisy_mod.values.tobytes(), den.ghat.values.tobytes(), repr(met)

    with blocked(*SERIAL):
        want = run()
    for workers in (blocks.WORKERS, 1, 3):
        with blocked(blocks.BLOCK, workers):
            assert run() == want, workers


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("rows, row_size", [(0, 1), (1, 1), (17, 1), (17, 3), (5, 40)])
def test_blocks_cover_the_range_once_in_fixed_steps(rows, row_size, workers):
    calls = []
    with blocked(7, workers):
        blocks.run_blocks(lambda start, stop: calls.append((start, stop)), rows, row_size)
    step = max(1, 7 // row_size)
    assert sorted(calls) == [(s, min(s + step, rows)) for s in range(0, rows, step)]


def test_every_block_runs_once_under_frequent_thread_switches():
    # Eight workers, switching threads as often as the interpreter allows:
    # a block claimed twice or never shows in hits.
    hits = np.zeros(3000, dtype=int)

    def fn(start, stop):
        hits[start:stop] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blocked(1, 8):
            assert _returns_within(lambda: blocks.run_blocks(fn, hits.size))
    finally:
        sys.setswitchinterval(interval)
    assert (hits == 1).all()


class _Tracker:
    """Counts the blocks inside fn at any moment and the blocks that ran."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inside = 0
        self.ran = 0

    def enter(self):
        with self.lock:
            self.inside += 1
            self.ran += 1

    def leave(self):
        with self.lock:
            self.inside -= 1


@pytest.mark.parametrize("raise_in_caller", [True, False], ids=["caller", "helper"])
def test_an_exception_in_a_block_waits_for_every_started_block(raise_in_caller):
    tracker = _Tracker()

    def fn(start, stop):
        tracker.enter()
        try:
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == raise_in_caller:
                time.sleep(0.02)
                raise KeyError(start)
            time.sleep(0.1)
        finally:
            tracker.leave()

    with blocked(1, 3):
        with pytest.raises(KeyError):
            blocks.run_blocks(fn, 12)
        assert tracker.inside == 0
    # No block starts once one has failed.
    assert tracker.ran < 12


def test_an_exception_in_a_serial_block_stops_the_pass():
    ran = []

    def fn(start, stop):
        ran.append(start)
        if start == 2:
            raise KeyError(start)

    with blocked(1, 1), pytest.raises(KeyError):
        blocks.run_blocks(fn, 6)
    assert ran == [0, 1, 2]


def test_a_call_from_inside_a_block_returns():
    # One helper thread: an inner call made in a block it runs queues its
    # own helper behind itself.
    out = np.zeros((6, 10))

    def outer(start, stop):
        for row in range(start, stop):
            def inner(a, b, row=row):
                time.sleep(0.001)
                out[row, a:b] += 1

            blocks.run_blocks(inner, 10)

    with blocked(1, 2):
        assert _returns_within(lambda: blocks.run_blocks(outer, 6))
    assert (out == 1).all()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork on Linux")
def test_a_call_in_a_forked_child_returns():
    with blocked(1, 3):
        seen = np.zeros(8)
        blocks.run_blocks(lambda a, b: seen.__setitem__(slice(a, b), 1), 8)  # the pool runs
        with warnings.catch_warnings():
            # Newer Pythons warn on fork in a process with threads; the fork
            # is the case under test.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                threads = np.zeros(8)

                def fill(a, b):
                    time.sleep(0.05)
                    threads[a:b] = threading.get_ident()

                blocks.run_blocks(fill, 8)
                # Every block ran, and not all in the caller: the parent's
                # threads do not run here, so the child starts its own.
                code = 0 if threads.all() and np.unique(threads).size > 1 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("run_blocks in a forked child did not return")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


def test_a_range_of_one_block_starts_no_thread():
    grid = UniformGrid(2, 8)
    f = random_mod1_field(grid, np.random.default_rng(1))
    with blocked(grid.n, 3):
        before = threading.active_count()
        denoise(f, 5)
        keyed_normals(0, grid.n)
        assert threading.active_count() == before and blocks._pool is None
