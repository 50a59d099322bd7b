#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py [--seconds 1] [workload ...]

Run from the repository root.  Runs each workload briefly, untraced and
traced on one seed and untraced on a second seed, and checks that:
  1. every metric BENCHMARK.json names is printed, by name and with its
     unit, in the result object and in a `metric` line;
  2. the traced and untraced runs stream the same packets and reports per
     pass;
  3. the second seed changes the inputs but not the output-check outcomes.
Exits 1 on the first failed expectation.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d trace %d: exit %d" %
                 (workload, seed, trace, p.returncode))
    path = os.path.join(ROOT, ".perf_out", "result-%s-%d-trace%d.json" %
                        (workload, seed, trace))
    with open(path) as f:
        detail = json.load(f)
    return json.loads(lines[-1]), lines, detail


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def check_metrics(workload, result, lines, spec):
    names = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == names, "%s: metrics %s match BENCHMARK.json with units" %
           (workload, "/".join(sorted({m["name"].split(".")[0]
                                       for m in spec}))))
    printed = {l.split()[1]: l.split()[-1] for l in lines
               if l.startswith("metric ")}
    expect(printed == names, "%s: every metric line printed with its unit" %
           workload)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in a.workloads or [x["name"] for x in bench["workloads"]]:
        r0, l0, d0 = run(w, SEEDS[0], a.seconds, 0)
        r1, l1, d1 = run(w, SEEDS[0], a.seconds, 1)
        r2, _, d2 = run(w, SEEDS[1], a.seconds, 0)
        check_metrics(w, r0, l0, bench["end_to_end"])
        check_metrics(w, r1, l1, bench["per_layer"])
        s0, s1, s2 = d0["stamp"], d1["stamp"], d2["stamp"]
        expect(s0["packets_per_pass"] == s1["packets_per_pass"] and
               s0["reports_per_pass"] == s1["reports_per_pass"],
               "%s: traced and untraced passes stream %d packets, %d reports"
               % (w, s0["packets_per_pass"], s0["reports_per_pass"]))
        expect(s0["input_digest"] != s2["input_digest"],
               "%s: seed %d and %d generate different inputs" %
               (w, SEEDS[0], SEEDS[1]))
        outcome = lambda d: [(c["name"], c["ok"]) for c in d["checks"]]
        expect(outcome(d0) == outcome(d2) and r0["correct"] and r2["correct"],
               "%s: %d output checks pass on both seeds" %
               (w, len(d0["checks"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
