"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload torus_certify --seeds 1-10

Runs benchmarks/run.py untraced once per seed, one process at a time, for
the run_seconds that BENCHMARK.json sets, and prints for each metric the median, the quartiles and their distance as a share of the
median (statistics.quantiles with n=4), plus the failed share of ops.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(runs[-1])}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed shares {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
