#!/usr/bin/env python3
"""Steadiness self-check of the fosm benchmark.

    python3 perfbench/check_steady.py [--runs 10] [--first-seed 1]
        [--workloads cpi-hot,batch-cold,...] [--seconds S]
        [--held-out-seed N] [--json OUT]

Runs every workload --runs times, each with another seed, through
perfbench/run.py from the checkout root, then reports each end-to-end
metric's spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median,
against the metric's bound in BENCHMARK.json. setup_s is reported
but, like the acceptance rule, not held to its bound here. Every run
must also be correct with zero failed operations.

--held-out-seed adds one model-vs-sim run on a seed kept out of
tuning, so the accuracy metrics are also shown on unseen points.

Exits 1 and names the workload and metric of every failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = bench["end_to_end"]
    failures = []
    record = {}
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(workload, seed, args.seconds)
            if r is None:
                failures.append("%s seed %d: run failed" % (workload, seed))
                continue
            if not r["correct"] or r["failed"]:
                failures.append("%s seed %d: %d of %d operations failed"
                                % (workload, seed, r["failed"],
                                   r["attempted"]))
            results.append(r)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {m: round(v["value"], 4)
                 for m, v in sorted(r["metrics"].items())})), flush=True)
        record[workload] = results
        if len(results) < 2:
            continue
        print("\n%-18s %-24s %14s %8s %6s" % ("workload", "metric",
                                              "median", "spread", "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, s = spread(values)
            held = m["name"] != "setup_s"
            ok = not held or s <= m["bound"]
            print("%-18s %-24s %14.6g %8.4f %6.3f%s" % (
                workload, m["name"], med, s, m["bound"],
                "" if ok else "  FAIL" if held else ""))
            if not ok:
                failures.append("%s %s: spread %.4f over bound %.3f"
                                % (workload, m["name"], s, m["bound"]))
        print(flush=True)

    if args.held_out_seed is not None:
        r = run_once("model-vs-sim", args.held_out_seed, args.seconds)
        if r is None:
            failures.append("model-vs-sim held-out seed: run failed")
        else:
            record["model-vs-sim-held-out"] = [r]
            print("model-vs-sim held-out seed %d: cpi_err_mean_pct %.4f, "
                  "cpi_err_max_pct %.4f" % (
                      args.held_out_seed,
                      r["metrics"]["cpi_err_mean_pct"]["value"],
                      r["metrics"]["cpi_err_max_pct"]["value"]))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    for line in failures:
        print("FAIL " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
