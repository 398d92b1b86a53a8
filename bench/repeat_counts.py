"""Check that the traced run's counts repeat exactly between two runs.

    python3 bench/repeat_counts.py --workload scale --seed 1 --seconds 10

Makes two traced runs of one workload and seed and compares, job by job
over the jobs both runs reached, the counts of FieldElement multiplications
and additions and of elimination cells.  Counts that repeat exactly can back
a count-only claim; timings cannot.  Prints one JSON line; exits 1 when a
count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.json")) as fh:
        return json.load(fh)["job_counts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    common = sorted(set(first) & set(second), key=int)
    differing = [job for job in common if first[job] != second[job]]
    totals = {key: sum(first[job].get(key, 0) for job in common)
              for key in ("cyclotomic.mul.calls", "cyclotomic.add.calls",
                          "linalg.eliminate.cells")}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "jobs_compared": len(common), "jobs_differing": len(differing),
                      "totals_over_compared_jobs": totals}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
