#!/usr/bin/env python3
"""Benchmark-trajectory tooling for the pm2-bench-v1 records.

Every benchmark run with `--json <path>` writes a pm2-bench-v1 document:

    {"schema": "pm2-bench-v1", "bench": "<name>",
     "records": [{"case": "<c>",
                  "metrics": {"<key>": {"value": v, "gate": g}}}]}

where gate is "lower" (a regression when the value rises), "higher" (a
regression when it falls) or "none" (informational: lock contention,
core time-in-state, ...).  Every metric is a virtual-time figure of the
model.  This tool aggregates those documents into the repo-root
trajectory file and gates CI against the committed baseline:

    bench_compare.py collect -o BENCH_core.json fig5.json fig6.json ...
        Merge per-bench documents into a pm2-bench-trajectory-v1 file.

    bench_compare.py compare BASELINE.json NEW.json
        Exit nonzero when any metric differs from the baseline at all,
        in either direction and whatever its gate: the simulation is
        deterministic, so any drift is a model change and needs a
        refreshed baseline.  A vanished gated metric fails too.

    bench_compare.py selftest
        Verify the gate logic on synthetic data (used by CI and tests).
"""

import argparse
import json
import sys

TRAJECTORY_SCHEMA = "pm2-bench-trajectory-v1"
BENCH_SCHEMA = "pm2-bench-v1"


def fail(msg: str) -> None:
    print(f"bench_compare: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    return doc


def check_bench_doc(path: str, doc: dict) -> None:
    if doc.get("schema") != BENCH_SCHEMA:
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(f"{path}: bench name missing")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: records missing or empty")
    for rec in records:
        if not isinstance(rec.get("case"), str):
            fail(f"{path}: record without a case name")
        metrics = rec.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            fail(f"{path}: case {rec.get('case')}: metrics missing")
        for key, m in metrics.items():
            if not isinstance(m.get("value"), (int, float)):
                fail(f"{path}: {rec['case']}/{key}: value missing")
            if m.get("gate") not in ("lower", "higher", "none"):
                fail(f"{path}: {rec['case']}/{key}: bad gate "
                     f"{m.get('gate')!r}")


def collect(out_path: str, inputs: list) -> None:
    benches = {}
    for path in inputs:
        doc = load(path)
        check_bench_doc(path, doc)
        name = doc["bench"]
        if name in benches:
            fail(f"{path}: duplicate bench {name!r}")
        benches[name] = {"records": doc["records"]}
    trajectory = {"schema": TRAJECTORY_SCHEMA, "benches": benches}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=1, sort_keys=True)
        f.write("\n")
    cases = sum(len(b["records"]) for b in benches.values())
    print(f"bench_compare: wrote {out_path} "
          f"({len(benches)} benches, {cases} cases)")


def flatten(doc: dict, path: str) -> dict:
    """trajectory doc -> {(bench, case, key): (value, gate)}"""
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        fail(f"{path}: benches missing or empty")
    flat = {}
    for bench, body in benches.items():
        for rec in body.get("records", []):
            for key, m in rec.get("metrics", {}).items():
                flat[(bench, rec["case"], key)] = (m["value"], m["gate"])
    return flat


def compare(base_path: str, new_path: str) -> int:
    base = flatten(load(base_path), base_path)
    new = flatten(load(new_path), new_path)
    failures = []
    checked = 0
    for ident, (old_value, gate) in sorted(base.items()):
        label = "/".join(ident)
        if ident not in new:
            if gate != "none":
                failures.append(f"{label}: gated metric disappeared")
            continue
        new_value = new[ident][0]
        checked += 1
        if new_value != old_value:
            failures.append(f"{label}: {old_value!r} -> {new_value!r} "
                            f"(metric must not move)")
    for ident in sorted(set(new) - set(base)):
        if new[ident][1] != "none":
            print(f"bench_compare: note: new gated metric "
                  f"{'/'.join(ident)} (no baseline yet)")
    if failures:
        print(f"bench_compare: {len(failures)} regression(s) vs "
              f"{base_path}:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"bench_compare: ok ({checked} metrics identical to "
          f"{base_path})")
    return 0


def selftest() -> int:
    def traj(**values):
        return {"schema": TRAJECTORY_SCHEMA, "benches": {
            "b": {"records": [{"case": "c", "metrics": {
                k: {"value": v, "gate": g} for k, (v, g) in values.items()
            }}]}}}

    import os
    import tempfile

    def run(base, new):
        with tempfile.TemporaryDirectory() as d:
            bp, np_ = os.path.join(d, "base.json"), os.path.join(d, "new.json")
            with open(bp, "w", encoding="utf-8") as f:
                json.dump(base, f)
            with open(np_, "w", encoding="utf-8") as f:
                json.dump(new, f)
            return compare(bp, np_)

    def same(**changed):
        values = {"lat": (100.0, "lower"), "rate": (50.0, "higher"),
                  "info": (7.0, "none")}
        values.update(changed)
        return traj(**values)

    base = same()
    assert run(base, same()) == 0, "an identical rerun must pass"
    # Any drift fails, either way, gated or not.
    assert run(base, same(lat=(100.0001, "lower"))) == 1, \
        "a tiny latency rise must fail"
    assert run(base, same(lat=(99.0, "lower"))) == 1, \
        "a latency drop must fail too"
    assert run(base, same(rate=(55.0, "higher"))) == 1, \
        "a throughput gain must fail too"
    assert run(base, same(rate=(45.0, "higher"))) == 1, \
        "a throughput drop must fail"
    assert run(base, same(info=(8.0, "none"))) == 1, \
        "an informational drift must fail"
    gone = same()
    del gone["benches"]["b"]["records"][0]["metrics"]["lat"]
    assert run(base, gone) == 1, "a vanished gated metric must fail"
    print("bench_compare: selftest ok")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_collect = sub.add_parser("collect")
    p_collect.add_argument("-o", "--output", required=True)
    p_collect.add_argument("inputs", nargs="+")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("baseline")
    p_compare.add_argument("new")
    sub.add_parser("selftest")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args.output, args.inputs)
    elif args.cmd == "compare":
        sys.exit(compare(args.baseline, args.new))
    else:
        sys.exit(selftest())


if __name__ == "__main__":
    main()
