"""Closed-loop benchmark of modrec, end to end and per layer.

Run from the repository root, one workload per process:

    python3 benchmarks/run.py --workload knn_recover --seed 1 --seconds 25 --trace 0

Workloads: knn_recover, torus_certify, relax_sweep, cli_roundtrip (see
benchmarks/README.md).  The process has one caller and no extra threads, with
BLAS pinned to one thread; the next op starts only when the previous one has
returned.  Set-up (inputs built, then one discarded warm-up op of each
kind) runs three times; setup_s is the import time plus the median of the
three.  The timed loop then runs whole passes over the inputs until the next
pass would end past --seconds and at least 40 ops have run.
Garbage is collected between ops, outside the timed region.  There too, each
op's accuracy is measured and then its outputs are checked.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  correct is false if any op failed other
than by the known fault it is marked with.  A run in which no op returned an
output exits with an error and prints no result.  The same object, with details, goes to
benchmarks/out/result-<workload>-seed<seed>-trace<t>.json; a traced run also
writes its spans to benchmarks/out/trace-<workload>-seed<seed>.json.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("knn_recover", "torus_certify", "relax_sweep", "cli_roundtrip")
SETUP_REPEATS = 3
MIN_OPS = 40  # a tail needs ten samples beyond it out of at least forty
TAIL_BEYOND = 10
MAX_LOOP_SECONDS = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other modrec."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "modrec", "__init__.py")):
        sys.exit(f"error: modrec sources not found under {src}")
    sys.path[:0] = [src, HERE]
    import modrec

    if not os.path.abspath(modrec.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported modrec from {modrec.__file__}, not from {src}")


def tail(times):
    """Highest order statistic with at least TAIL_BEYOND samples above it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def run(args) -> dict:
    import_program()
    import tracing
    import workloads
    from oracles import CheckFailure

    import_s = time.perf_counter() - _START
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    cls = workloads.WORKLOADS[args.workload]

    setups = []
    wl = None
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None and hasattr(wl, "close"):
                wl.close()
            t = time.perf_counter()
            wl = cls(args.seed, args.tiny, workdir)
            warmed = set()
            for op in wl.next_pass():
                if op.kind not in warmed:
                    warmed.add(op.kind)
                    op.run(tracing.NullTracer())
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        times, qualities, failures = [], [], {}
        attempted = failed = unexpected = passes = 0
        gc.collect()
        gc.disable()
        loop_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            tracer.counting = passes == 0
            for op in wl.next_pass():
                gc.collect()
                attempted += 1
                try:
                    with tracer.op(op.kind) as op_id:
                        t0 = time.perf_counter()
                        out = op.run(tracer)
                        dt = time.perf_counter() - t0
                    times.append(dt)
                    qualities.extend(op.quality(out))
                    if tracer.enabled and op.replay is not None:
                        with tracer.op(op.kind, replay_of=op_id):
                            op.replay(tracer, out)
                    op.check(out)
                except Exception as exc:  # an op that raises or fails a check is a failed op
                    failed += 1
                    if not (isinstance(exc, CheckFailure) and op.known_fault and op.known_fault in str(exc)):
                        unexpected += 1
                    key = f"{op.kind}: {type(exc).__name__}: {exc}"
                    failures[key] = failures.get(key, 0) + 1
            passes += 1
            now = time.perf_counter()
            elapsed = now - loop_start
            if attempted >= MIN_OPS and elapsed + (now - pass_start) > args.seconds:
                break
            if elapsed > MAX_LOOP_SECONDS:
                break
    finally:
        gc.enable()
        if hasattr(wl, "close"):
            wl.close()

    for key, count in failures.items():
        print(f"failed x{count}: {key}", file=sys.stderr)
    if not times or not qualities:
        sys.exit("error: no op returned an output to measure")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = tracer.layer_metrics()
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "aligned_rmse": {
                "value": math.sqrt(sum(q.sq_sum for q in qualities) / sum(q.points for q in qualities)),
                "unit": "turns",
            },
            "torus_err_inf": {"value": statistics.fmean(q.chord_inf for q in qualities), "unit": "chord"},
        }
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "passes": passes, "timed_ops": len(times), "op_s_p50": statistics.median(times),
        "tail_percentile": 100.0 * (1.0 - TAIL_BEYOND / len(times)),
        "setup": {"import_s": import_s, "inputs_and_warmup_s": setups},
        "failures": failures,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
