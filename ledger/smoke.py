#!/usr/bin/env python3
"""ledger_smoke: every workload at tiny scale, untraced and traced, then the
--compare verdicts. Checks that each run's result line carries the metrics
BENCHMARK.json names, that each traced run measured exactly the layers its
workload exercises (nonzero unless listed below), that trace files parse,
and that --compare passes a report set against itself and fails it against
a copy with op_ms doubled.

Usage: smoke.py PATH/TO/apgre_ledger
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

STATIC_LAYERS = {
    "bcc.decompose_ms", "bcc.reach_ms", "bcc.blocks", "bcc.subgraphs",
    "bcc.top_vertices", "bcc.decompositions_per_op", "bc.score_ms",
    "bc.score.top_ms", "bc.score.rest_ms", "bc.work_fraction",
    "bc.fine_subgraphs", "bc.batch_tasks", "sched.tasks", "sched.steals",
    "sched.idle_ms", "sched.op_1t_ms", "sched.efficiency", "ref.brandes_s",
    "ref.speedup", "trace.coverage", "process.peak_rss_mb", "process.minor_faults_per_op",
}
# workload: (per-layer metrics its traced run sets, those that may read 0).
# The level-synchronous kernel does no work at default options (README,
# coverage gaps); at scale 0.1 no sub-graph is large enough to split into
# root batches, and a solve that small may see no steal or idle time; a
# 0.2 s run may see no structural write or downgrade; a local stream never
# re-decomposes.
STATIC_ZERO_OK = {"bc.score.top_ms", "bc.fine_subgraphs", "bc.batch_tasks",
                  "sched.steals", "sched.idle_ms"}
LAYERS = {
    "social_solve": (STATIC_LAYERS, STATIC_ZERO_OK),
    "road_solve": (STATIC_LAYERS, STATIC_ZERO_OK),
    "tenant_serve": ({
        "service.read_ms.p50", "service.read_ms.p99", "service.write_ms.p50",
        "service.write_ms.p90", "bc.read_solve_ms.p50", "bc.read_solve_ms.p99",
        "service.read_wait_ms.p50", "service.read_wait_ms.p99", "service.hit_rate",
        "service.local_recomputes_per_write", "service.full_invalidations_per_write",
        "service.batch_downgrades_per_write", "bc.blocks_resolved_per_write",
        "bcc.decompositions_per_op", "trace.coverage", "process.peak_rss_mb",
        "process.minor_faults_per_op",
    }, {"service.full_invalidations_per_write", "service.batch_downgrades_per_write",
        "bcc.decompositions_per_op"}),
    "caveman_stream": ({
        "graph.coalesce_us", "graph.apply_ops_us", "bcc.classify_us", "bcc.patch_us",
        "bcc.blocks", "bcc.subgraphs", "bcc.top_vertices", "bcc.decompositions_per_op",
        "bc.local_batch_us", "bc.scores_copy_us", "bc.blocks_resolved_per_write",
        "trace.coverage", "process.peak_rss_mb", "process.minor_faults_per_op",
    }, {"bcc.decompositions_per_op"}),
}


def run_workload(binary, workload, trace, work):
    report = os.path.join(work, "a", f"{workload}.t{trace}.json")
    trace_file = os.path.join(work, f"{workload}.t{trace}.trace.json")
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "0.2",
           "--scale", "0.1", "--trace", str(trace), "--out", report,
           "--trace-out", trace_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    with open(report) as f:
        full = json.load(f)
    return result, full, events


def main(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    work = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke")
    shutil.rmtree(work, ignore_errors=True)
    set_a, set_b = os.path.join(work, "a"), os.path.join(work, "b")
    os.makedirs(set_a)
    os.makedirs(set_b)

    assert set(LAYERS) == {w["name"] for w in spec["workloads"]}
    for workload, (layers, zero_ok) in LAYERS.items():
        assert layers <= set(per_layer), (workload, layers - set(per_layer))
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result, full, events = run_workload(binary, workload, trace, work)
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1, (workload, result)
            missing = set(names) ^ set(result["metrics"])
            assert not missing, (workload, trace, "metrics differ", missing)
            measured = full["metrics"]
            if not trace:
                for name in end_to_end:
                    assert measured[name]["value"] > 0, (workload, name)
            else:
                layer_set = set(measured) & set(per_layer)
                assert layer_set == layers, (workload, "layers differ", layer_set ^ layers)
                for name in layers - zero_ok:
                    assert measured[name]["value"] > 0, (workload, name, "reads 0")
                assert events, (workload, "traced run recorded no spans")
                assert all(e["dur"] >= 0 for e in events), workload
        if workload == "caveman_stream":
            assert measured["bcc.decompositions_per_op"]["value"] == 0, "stream re-decomposed"
        print(f"ok {workload}")

    run_py = [sys.executable, os.path.join(HERE, "run.py"), "--compare"]
    same = subprocess.run(run_py + [set_a, set_a], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    for name in os.listdir(set_a):
        with open(os.path.join(set_a, name)) as f:
            report = json.load(f)
        if report["workload"] == "social_solve" and report["trace"] == 0:
            report["metrics"]["op_ms"]["value"] *= 2
        with open(os.path.join(set_b, name), "w") as f:
            json.dump(report, f)
    worse = subprocess.run(run_py + [set_a, set_b], capture_output=True, text=True)
    assert worse.returncode == 1, worse.stdout + worse.stderr
    print("ok compare")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
