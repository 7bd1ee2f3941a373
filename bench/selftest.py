"""Self-test: two traced runs with one seed must give identical work counts.

    python3 bench/selftest.py [--seed 3] [--workload NAME ...]

Each workload runs twice as ``run.py --trace 1 --seconds 1`` (the minimum
of three rounds: untraced, traced, untraced).  Every per-layer metric whose
unit is ``count`` or ``bytes`` must be equal between the two runs; wall
times are not compared.
Exits 1 on the first disagreement or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 300


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def main():
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", nargs="*", default=run.WORKLOAD_NAMES)
    args = parser.parse_args()
    for workload in args.workload:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            for key in differ:
                print(f"{workload}: {key} {first[key]} != {second.get(key)}")
            return 1
        print(f"{workload}: {len(first)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
