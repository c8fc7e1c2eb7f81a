#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric, by name with its unit.

    python3 perfbench/report.py                      # all workloads, 1 seed
    python3 perfbench/report.py --workload rpc_tail --seeds 10

Runs perfbench/run.py through its command line, one fresh process per run
(seeds first-seed .. first-seed+N-1): --trace 0 for every seed and
--trace 1 for the first.  With several seeds it also prints, for each
end-to-end metric, the median, the quartiles and the spread (q3 - q1) /
median beside the metric's bound from BENCHMARK.json; a spread must stay
below a third of the bound.  Exits 1 if any run is incorrect or failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself: workloads and spec)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def report(workload, seeds, seconds, spec):
    ok = True
    runs = []
    for seed in seeds:
        res = one_run(workload, seed, seconds, 0)
        if res is None or not res["correct"] or res["failed"]:
            print(f"{workload} seed {seed}: run failed or incorrect: {res}")
            ok = False
            continue
        runs.append(res)
        print(f"{workload} seed {seed}: "
              + ", ".join(f"{k}={fmt(m['value'])}"
                          for k, m in res["metrics"].items()), flush=True)
    print(f"\n== {workload}: end-to-end ({len(runs)} runs) ==")
    print(f"{'metric':24} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound/3':>8}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        if not vals:
            continue
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- unsteady"
        print(f"{m['name']:24} {m['unit']:6} {med:12.6g} {q1:12.6g}"
              f" {q3:12.6g} {spread:8.4f} {m['bound'] / 3:8.4f}{flag}")

    traced = one_run(workload, seeds[0], seconds, 1)
    print(f"\n== {workload}: per-layer (traced, seed {seeds[0]}) ==")
    if traced is None or not traced["correct"]:
        print(f"traced run failed or incorrect: {traced}")
        return False
    for m in spec["per_layer"]:
        v = traced["metrics"][m["name"]]["value"]
        print(f"{m['name']:30} {m['unit']:6} {fmt(v):>14}")
    print()
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + run.WORKLOADS)
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = run.WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    ok = all([report(w, seeds, seconds, spec) for w in workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
