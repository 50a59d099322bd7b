#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [workload ...]

Run from the repository root.  Runs each workload (default: all in
BENCHMARK.json) untraced once per seed, then prints each metric's median,
its spread (the distance between the first and third quartile of the runs,
statistics.quantiles(values, n=4), as a share of the median) next to a
third of the metric's bound, and every run's value.  Exits 1 if a run
fails or reports correct=false, or a spread exceeds its bound.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for i in range(a.runs):
            r = run_once(w, a.first_seed + i, seconds)
            if not r["correct"]:
                print("%s seed %d: correct=false" % (w, a.first_seed + i))
                ok = False
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, %g s)" % (w, a.runs, seconds))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            ok = ok and spread <= bound
            print("  %-32s median %14.6g  spread %6.3f  bound/3 %.3f  %s" %
                  (name, med, spread, bound / 3, verdict))
            print("      " + " ".join("%.4g" % x for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
