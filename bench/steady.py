"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 bench/steady.py [--runs 10]

Each run is ``bench/run.py --trace 0`` in its own process, one at a time, each
with a seed of its own (set k, run i uses seed ``1 + k*runs + i``). For every
workload and end-to-end metric it prints each set's median and quartiles and
the spread (third minus first quartile, as a share of the median), then
whether every spread stays within the metric's bound in BENCHMARK.json,
whether the two sets' medians differ by no more than the bound, in either
direction, and whether the share of failed operations is the same in both
sets. Exits 1 when any of these does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least 2 runs")
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                seed = 1 + k * args.runs + i
                res = run_once(w, seed, spec["run_seconds"])
                results[w][k].append(res)
                print(f"set {k} seed {seed} {w}: " + json.dumps(res), file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in results[w]]
        correct = all(r["correct"] for s in results[w] for r in s)
        same_share = len(set(shares)) == 1
        print(f"{w}: failed share per set {shares}; all correct {correct}")
        steady &= correct and same_share
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            # Quartiles; the middle one is the median.
            stats = [statistics.quantiles([r["metrics"][name]["value"] for r in s], n=4) for s in results[w]]
            for k, (q1, q2, q3) in enumerate(stats):
                spread = (q3 - q1) / q2
                ok = spread <= bound
                steady &= ok
                print(f"  {name:14s} set {k}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.4f} (bound {bound}, a third {bound / 3:.4f}){'' if ok else ' TOO WIDE'}")
            first, second = stats[0][1], stats[1][1]
            moved = (second - first) / first
            ok = abs(moved) <= bound
            steady &= ok
            print(f"  {name:14s} second set median moved by {moved:+.4f}{'' if ok else ' OVER BOUND'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
