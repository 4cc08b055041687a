"""Check that a workload is steady: two sets of repeated runs must agree.

    python3 perfbench/steady.py --workload solve [--runs 10]

Each of the two sets runs ``run.py`` once per seed, one run at a time: set 1
with seeds 1 to R, set 2 with seeds R+1 to 2R (R is ``--runs``; 5 makes a
quick probe).  For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles, the spread (interquartile distance over the
median) and how far set 2's median is worse than set 1's.  The sets agree
when every spread and the worsening are within the metric's bound, and the
share of failed operations is the same in every run.  Exits 1 if they do not
agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: outputs were wrong\n{out.stderr}")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    sets = []
    for k in range(2):
        results = []
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            results.append(run_once(args.workload, seed, spec["run_seconds"]))
            print(f"set {k + 1} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in results[-1]["metrics"].items()), flush=True)
        sets.append(results)

    agree = True
    shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
    print(f"failed share per set: {[sorted(s) for s in shares]}")
    if any(len(s) != 1 for s in shares) or len(set.union(*shares)) != 1:
        agree = False
    print(f"{'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'worse':>8s} bound")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        base = None
        for k, results in enumerate(sets):
            median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
            base = median if base is None else base
            worse = sign * (median - base) / base
            ok = spread <= bound and worse <= bound
            agree &= ok
            print(f"{name:14s} {k + 1:3d} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {worse:8.3f} "
                  f"{bound} {'ok' if ok else 'OUT'}")
    print("sets agree" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
