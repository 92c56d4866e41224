#!/usr/bin/env python3
"""Steadiness check: run two sets of k runs of each workload (seeds 1..k,
then k+1..2k) and compare them against the bounds in BENCHMARK.json.
Run from the repository root:

    python3 perfbench/steady.py                    # every workload, k = 10
    python3 perfbench/steady.py -k 5 -w small-1d   # a quick look at one

For every end-to-end metric each set prints the median, quartiles,
min/max and the inter-quartile spread as a share of the median.  It
fails when, in either set, a spread exceeds the metric's bound; when the
second set's median is worse than the first's by more than the bound;
when any run is not correct; or when the share of failed operations is
not the same in every run.  The aim is a spread below a third of the
bound ("steady").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    return json.loads(lines[-1])


def spreads(w, runs, bounds):
    """Print one set's table; return its medians and whether it passes."""
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print("\n%s: %d runs, failed share %s, correct %s" % (w, len(runs), sorted(shares), correct))
    print("%-16s %12s %12s %12s %12s %12s %8s %6s %s" % (
        "metric", "min", "q1", "median", "q3", "max", "spread", "bound", "verdict"))
    ok = correct and len(shares) == 1
    medians = {}
    for name, m in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = med
        spread = (q3 - q1) / med
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
            ok = False
        print("%-16s %12.4g %12.4g %12.4g %12.4g %12.4g %8.3f %6.2f %s" % (
            name, min(vals), q1, med, q3, max(vals), spread, m["bound"], verdict))
    return medians, shares, ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=10, help="runs per workload in each set")
    ap.add_argument("-w", "--workload", action="append",
                    help="workload (repeatable; default: all)")
    a = ap.parse_args()
    names = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    sets = []
    for s in range(2):
        print("\n== set %d: seeds %d..%d" % (s + 1, s * a.k + 1, (s + 1) * a.k), flush=True)
        result = {}
        for w in names:
            runs = []
            for seed in range(s * a.k + 1, (s + 1) * a.k + 1):
                r = run_once(w, seed, seconds)
                runs.append(r)
                print("%s seed=%d %s" % (w, seed, " ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
            medians, shares, set_ok = spreads(w, runs, bounds)
            ok &= set_ok
            result[w] = (medians, shares)
        sets.append(result)
    print("\n== set 2 against set 1: change of the median, worse direction positive")
    print("%-12s %-16s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median 1", "median 2", "worse", "bound", "verdict"))
    for w in names:
        (m1, sh1), (m2, sh2) = sets[0][w], sets[1][w]
        if sh1 != sh2:
            print("%-12s failed share differs: %s vs %s" % (w, sorted(sh1), sorted(sh2)))
            ok = False
        for name, m in bounds.items():
            change = (m2[name] - m1[name]) / m1[name]
            worse = -change if m["better"] == "higher" else change
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print("%-12s %-16s %12.4g %12.4g %8.3f %6.2f %s" % (
                w, name, m1[name], m2[name], worse, m["bound"], verdict))
    print("\n%s" % ("PASS" if ok else "FAIL"), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
