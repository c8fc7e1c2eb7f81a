#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--workload W]

For each workload: two runs with one seed must give bit-identical virtual
-time metrics, failure counts and every count metric; a traced run of that
seed must match them too (tracing and flight recording are
schedule-neutral); a run with another seed must give different virtual-time
metrics.  Every run must verify all its ops and conservation laws.
Exits 1 on any violation.

HELD_OUT_SEED is never used while tuning the benchmark or a change; a
claimed gain must also hold on it (report.py --first-seed HELD_OUT_SEED).
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 11
OTHER_SEED = 12
HELD_OUT_SEED = 90210
VT = ("vt_p50_us", "vt_p99_us", "vt_p999_us", "vt_ops_per_ms")


def check(binary, workload):
    a = run.rep(binary, workload, SEED)
    b = run.rep(binary, workload, SEED)
    t = run.rep(binary, workload, SEED, traced=True)
    c = run.rep(binary, workload, OTHER_SEED)
    problems = []
    for r in (a, b, t, c):
        if r["exit"] != 0 or r["laws"] or r["failed"]:
            problems.append(f"seed {r['seed']} traced={r['traced']}: exit "
                            f"{r['exit']}, laws {r['laws']}, "
                            f"{r['failed']} failed ops")
    problems += [f"same seed differs: {m}" for m in run.mismatches([a, b])]
    problems += [f"traced differs: {m}" for m in run.mismatches([a, t])]
    same = [k for k in VT if a[k] == c[k]]
    if same:
        problems.append(f"seeds {SEED} and {OTHER_SEED} agree on {same}")
    for p in problems:
        print(f"{workload}: FAIL {p}")
    if not problems:
        print(f"{workload}: ok (" + ", ".join(f"{k} {a[k]:.6g} vs {c[k]:.6g}"
                                             for k in VT) + ")")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + run.WORKLOADS)
    args = ap.parse_args()
    binary = run.build()
    workloads = run.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = all([check(binary, w) for w in workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
