"""Per-point passes in fixed blocks, run on every CPU of the process.

A pass over a large field is cut into consecutive blocks of BLOCK elements,
or of whole rows holding about that many.  The calling thread works through
the blocks next to one helper thread per further CPU in the process's
affinity mask.  Each block writes its own slice of an output the caller
allocated, and no reduction is split, so the result does not depend on the
block size or on the number of workers.  A range of one block runs in the
caller alone and starts no thread.  Nothing here is configurable.
"""

from __future__ import annotations

import os
import threading

# Elements per block.  Smaller blocks lose time to thread hand-offs, and
# they split fields of 2^16 points, whose blocks then grow a helper's malloc
# arena by more than splitting saves.
BLOCK = 65536

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    WORKERS = os.cpu_count() or 1

_pool = None  # (pid, executor), started by the first call that has two blocks
_pool_lock = threading.Lock()


def _helpers():
    """The helper threads of this process; a child made by fork gets its own,
    since the threads of its parent do not run in it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="modrec-block"))
        return _pool[1]


def run_blocks(fn, rows: int, row_size: int = 1) -> None:
    """Call fn(start, stop) once for each block [start, stop) of range(rows),
    a block holding max(1, BLOCK // row_size) rows of row_size elements.

    Blocks run in any order and at once, so fn may only write its own slice.
    An exception in a block stops further blocks from starting and is raised
    here once every block that started has returned.
    """
    step = max(1, BLOCK // row_size)
    count = -(-rows // step)
    if WORKERS < 2 or count < 2:
        for start in range(0, rows, step):
            fn(start, min(start + step, rows))
        return
    claimed = iter(range(count))
    lock = threading.Lock()
    failed = []

    def drain():
        while True:
            with lock:
                i = None if failed else next(claimed, None)
            if i is None:
                return
            try:
                fn(i * step, min((i + 1) * step, rows))
            except BaseException:
                failed.append(True)
                raise

    futures = [_helpers().submit(drain) for _ in range(min(WORKERS - 1, count - 1))]
    try:
        drain()
    finally:
        # A helper queued behind busy threads (a call from inside a block)
        # has nothing left to do once the caller has drained every block.
        started = [f for f in futures if not f.cancel()]
        errors = [f.exception() for f in started]
    for error in errors:
        if error is not None:
            raise error
