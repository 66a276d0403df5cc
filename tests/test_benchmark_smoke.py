"""One tiny pass of every benchmark workload, run in-process.

The modules in benchmarks/ are imported, with bytecode writing off, and
nothing there is changed.  Every op must run, and its replay and its output
check must pass.  test_benchmark_uses.py reads the benchmark's source and
so sees only the library names it imports; this test also catches a result
attribute that the benchmark reads at run time and the library no longer
provides.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")

sys.path.insert(0, BENCHMARKS)
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracing
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write_bytecode
    sys.path.remove(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_runs_replays_and_checks(tmp_path, name):
    wl = workloads.WORKLOADS[name](seed=3, tiny=True, workdir=str(tmp_path / name))
    tracer = tracing.Tracer()
    try:
        ops = wl.next_pass()
        assert ops
        for op in ops:
            with tracer.op(op.kind) as op_id:
                out = op.run(tracer)
            assert all(q.points > 0 and q.chord_inf >= 0.0 for q in op.quality(out))
            if op.replay is not None:
                with tracer.op(op.kind, replay_of=op_id):
                    op.replay(tracer, out)
            op.check(out)
    finally:
        if hasattr(wl, "close"):
            wl.close()
