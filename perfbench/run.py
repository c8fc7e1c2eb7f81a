#!/usr/bin/env python3
"""Two-clock benchmark of the simulated PM2 stack.

    python3 perfbench/run.py --workload p2p_mix --seed 7 --seconds 30 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload's binary again and again, one fresh process per repetition, each
on one host thread with every simulated node a fiber inside it, until
--seconds have been spent.  All traffic is simulated inside that process:
no real link or loopback is used.

Every repetition replays the same seeded input, so every virtual-time
figure must repeat bit for bit.  Host times are calibrated: each piece of
work is scaled by a fixed probe timed next to it on the same thread (see
perfbench/README.md, "Host noise"); set-up and run() times and peak RSS are
medians over the repetitions.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json,
--trace 1 the per-layer ones, from repetitions that alternate between
untraced and traced (ClusterConfig::tracing + flight recording) runs.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}
The run is correct when every op verified, every conservation law held,
every repetition gave identical virtual-time results and counts, and the
traced repetitions matched the untraced ones exactly.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("p2p_mix", "rpc_tail", "halo_solver")

# Results every repetition of one seed must reproduce exactly, besides
# every "layer" value; "traced_only" values come from traced repetitions.
EXACT = ("vt_p50_us", "vt_p99_us", "vt_p999_us", "vt_ops_per_ms", "events",
         "msgs", "attempted", "failed", "samples")
MIN_REPS = 3  # per kind of repetition
REP_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build pm2_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "perfbench/")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # tree moved: start over
            shutil.rmtree(out)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "pm2_perfbench")


def rep(binary, workload, seed, traced=False, spans=None):
    """One repetition in its own process; returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if spans:
            cmd += ["--spans", spans]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {p.returncode})")
    r = json.loads(lines[-1])
    r["exit"] = p.returncode
    return r


def repetitions(binary, workload, seed, seconds, trace):
    """Repeat until `seconds` are spent (at least MIN_REPS of each kind);
    with trace, alternate untraced and traced repetitions."""
    kinds = (False, True) if trace else (False,)
    spans = os.path.join(build_dir(), "spans", f"{workload}-{seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    reps = {k: [] for k in kinds}
    t0 = time.monotonic()
    while True:
        for k in kinds:
            reps[k].append(rep(binary, workload, seed, k, spans))
        elapsed = time.monotonic() - t0
        done = min(len(v) for v in reps.values())
        per_round = elapsed / done
        if done >= MIN_REPS and elapsed + per_round > seconds:
            return reps


def mismatches(reps):
    """Ways in which repetitions that must agree exactly do not."""
    first = reps[0]
    bad = []
    for r in reps[1:]:
        for key in EXACT:
            if r[key] != first[key]:
                bad.append(f"{key}: {first[key]} vs {r[key]}")
        for key, v in first["layer"].items():
            if r["layer"].get(key) != v:
                bad.append(f"layer {key}: {v} vs {r['layer'].get(key)}")
    return sorted(set(bad))


def measure(binary, workload, seed, seconds, trace):
    spec = load_spec()
    reps = repetitions(binary, workload, seed, seconds, trace)
    plain = reps[False]
    everything = [r for v in reps.values() for r in v]
    first = plain[0]

    bad = mismatches(everything)
    for r in everything:
        if r["exit"] != 0 or r["laws"]:
            bad.append(f"exit {r['exit']}, broken laws {r['laws']}")
    for msg in bad:
        log(f"{workload}: not reproducible or inconsistent: {msg}")
    attempted = sum(int(r["attempted"]) for r in everything)
    failed = sum(int(r["failed"]) for r in everything)
    correct = not bad and failed == 0

    # Every repetition does the same work, and calibration has taken out
    # the slow phases of a shared host, so what is left is noise around
    # one level: the median is the steadiest figure.
    def median(key, reps=plain):
        return statistics.median(r[key] for r in reps)

    run_s = median("run_s")
    values = {
        "setup_s": median("setup_s"),
        "sim_msgs_per_s": first["msgs"] / run_s,
        "peak_rss_mb": median("peak_rss_mb"),
    }
    for key in ("vt_p50_us", "vt_p99_us", "vt_p999_us", "vt_ops_per_ms"):
        values[key] = first[key]
    if trace:
        traced = reps[True]
        values.update(traced[0]["layer"])
        values.update(traced[0]["traced_only"])
        values["sim.ns_per_event"] = run_s / first["events"] * 1e9
        values["bench.trace_overhead"] = median("run_s", traced) / run_s
        values["bench.fail_frac"] = first["failed"] / first["attempted"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            raise RuntimeError(f"{workload}: metric {m['name']} missing")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    log(f"{workload} seed {seed}: {len(plain)} untraced"
        + (f" + {len(reps[True])} traced" if trace else "")
        + f" repetitions, {first['samples']:.0f} ops each; run() median "
        f"{median('run_cpu_s'):.4g} CPU s, {run_s:.4g} calibrated s "
        f"(probe {median('probe_s') * 1e3:.4g} ms)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        binary = build()
        result = measure(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
