#!/usr/bin/env python3
"""Build and run the APGRE ledger, or compare two sets of its reports.

Run one workload (builds apgre_ledger under .bench_build/ first):
    python3 ledger/run.py --workload social_solve --seed 1 --seconds 10 --trace 0
        [--out REPORT.json] [--trace-out TRACE.json] [--scale X]

Compare two report sets (directories of --out files):
    python3 ledger/run.py --compare A_DIR B_DIR
Exit 1 when an end-to-end metric of B is worse than A's by more than its
BENCHMARK.json bound, or when B has wrong outputs or more failed operations.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "apgre_ledger")


def build():
    """Configure once, then bring apgre_ledger up to date; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the apgre library sources are missing beside ledger/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "apgre_ledger",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], [m["name"] for m in spec["per_layer"]]


def load_set(directory):
    """{(workload, trace): [report, ...]} for every *.json report in a set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                report = json.load(f)
            runs.setdefault((report["workload"], report["trace"]), []).append(report)
    return runs


def summary(reports, metric):
    """(median, q1, q3) of a metric's values across runs, or None."""
    values = [r["metrics"][metric]["value"] for r in reports if metric in r["metrics"]]
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(spec, a, b, a_values, b_values):
    """better / worse / within bound / unresolved for one metric."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    worse_by = (b[0] - a[0]) / a[0] if lower else (a[0] - b[0]) / a[0]
    spread = max((s[2] - s[1]) / s[0] for s in (a, b) if s[0] > 0)
    if lower:
        disjoint_better = max(b_values) < min(a_values)
    else:
        disjoint_better = min(b_values) > max(a_values)
    if spread > bound and not disjoint_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(dir_a, dir_b):
    end_to_end, per_layer = load_bounds()
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    regressed = False
    for key in sorted(set(set_a) & set(set_b)):
        workload, trace = key
        ra, rb = set_a[key], set_b[key]
        print(f"{workload} (trace {trace}): {len(ra)} vs {len(rb)} runs")
        for tag, runs in (("A", ra), ("B", rb)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            print(f"  {tag}: attempted {attempted}, failed {failed}, wrong outputs {wrong}")
        rate = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                for runs in (ra, rb)]
        if rate[1] > rate[0] or not all(r["correct"] for r in rb):
            print("  VERDICT worse: error rate rose or outputs are wrong")
            regressed = True
        for spec in end_to_end:
            name = spec["name"]
            a, b = summary(ra, name), summary(rb, name)
            if a is None or b is None or a[0] == 0:
                continue
            a_values = [r["metrics"][name]["value"] for r in ra]
            b_values = [r["metrics"][name]["value"] for r in rb]
            v = verdict(spec, a, b, a_values, b_values)
            regressed |= v == "worse"
            print(f"  {name:<12} A {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}]  "
                  f"B {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] {spec['unit']}  "
                  f"{100 * (b[0] - a[0]) / a[0]:+.1f}%  {v} (bound {spec['bound']:.0%})")
        for name in per_layer:
            a, b = summary(ra, name), summary(rb, name)
            if a is None or b is None or (a[0] == 0 and b[0] == 0):
                continue
            delta = f"{100 * (b[0] - a[0]) / a[0]:+.1f}%" if a[0] else "new"
            print(f"  {name:<38} A {a[0]:.6g}  B {b[0]:.6g}  {delta}")
    for key in sorted(set(set_a) ^ set(set_b)):
        print(f"{key[0]} (trace {key[1]}): only in {'A' if key in set_a else 'B'}")
    return 1 if regressed else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare A_DIR B_DIR")
        return compare(argv[1], argv[2])
    build()
    os.execv(BINARY, [BINARY] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
