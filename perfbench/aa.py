"""A/A report: two interleaved sets of runs of the same code.

    python3 perfbench/aa.py [--workloads a,b] [--runs 5] [--seconds 28] [--first-seed 1]

Runs ``run.py`` ``2 * runs`` times per workload: set A and set B take
turns going first in each round, so drift of the host over time
(set-up time has moved from ~0.22 s to ~0.13 s within an hour on a
shared 2-CPU host) lands in both sets alike.  Every run gets its own
seed.  For each workload and end-to-end metric it prints each set's
median and quartiles, the difference of the medians as a share of set
A's, the spread (quartile distance over median) of all runs, and the
bound from BENCHMARK.json.  A row passes when the spread and the
difference both stay within the bound.  The last line is a JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    # results[set][workload] -> list of result lines
    results = {"A": {w: [] for w in names}, "B": {w: [] for w in names}}
    for round_ in range(args.runs):
        order = ("A", "B") if round_ % 2 == 0 else ("B", "A")
        for index, side in enumerate(order):
            seed = args.first_seed + 2 * round_ + index
            for workload in names:
                result = one_run(workload, seed, args.seconds)
                results[side][workload].append(result)
                print(f"round {round_} set {side} {workload} seed {seed}: "
                      + json.dumps({k: v["value"] for k, v in
                                    result["metrics"].items()}), flush=True)

    summary = {"passed": True, "rows": []}
    print(f"\n{'workload':18} {'metric':12} {'set A median [q1, q3]':28} "
          f"{'set B median [q1, q3]':28} {'diff':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in names:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = [r["metrics"][name]["value"] for r in results["A"][workload]]
            b = [r["metrics"][name]["value"] for r in results["B"][workload]]
            diff = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            width = spread(a + b)
            verdict = "ok" if abs(diff) <= bound and width <= bound else "OUT OF BOUND"
            summary["passed"] &= verdict != "OUT OF BOUND"
            summary["rows"].append({"workload": workload, "metric": name,
                                    "diff": diff, "spread": width,
                                    "bound": bound, "verdict": verdict})
            print(f"{workload:18} {name:12} {describe(a):28} {describe(b):28} "
                  f"{diff:+7.1%} {width:7.1%} {bound:6.0%}  {verdict}")
        for side in ("A", "B"):
            attempted = sum(r["attempted"] for r in results[side][workload])
            failed = sum(r["failed"] for r in results[side][workload])
            summary["passed"] &= failed == 0
            print(f"{workload:18} set {side}: {failed} of {attempted} ops failed")
    print(json.dumps(summary))
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
