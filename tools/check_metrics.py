#!/usr/bin/env python3
"""Validate a pm2 metrics.json artefact (schema pm2-metrics-v1).

Usage:
    check_metrics.py METRICS_JSON [--expect-coll] [--expect-locks]
                     [--expect-rpc] [--expect-rma] [--expect-spans]
                     [--expect-shards]
                     [--expect-offload-beats BASELINE_JSON]

Checks that the document parses, carries the expected sections, and that
the attribution numbers are internally consistent.  With
--expect-offload-beats, additionally asserts that METRICS_JSON (a PIOMan
run) shows a strictly lower mean critical path than BASELINE_JSON (the
app-driven run of the identical workload) — the paper's offload claim,
checked in CI on every push.  With --expect-coll, additionally asserts
that the collective engine ran: nodeN/coll counters present, every
started collective completed, the op-kind counters add up, and the tag
band advanced in lockstep on every node.  With --expect-locks,
additionally asserts that the lock profiler and core-state timeline are
present and consistent: every node carries engine-lock acq/contended
counters with wait/hold histograms whose totals match, and every core's
five time-in-state counters sum exactly to the simulated time; and that
every PIOMan node reports its progress sources
(nodeN/piom/source/<name>/{polls,hits}, hits <= polls) and per-core
nodeN/cpuC/engine_polls, whose sum is at most the summed
nodeN/piom/poll/rounds.  With
--expect-rpc, additionally asserts that the RPC layer ran and conserved
its work: globally every issued call was dispatched exactly once and
every signal sent was delivered; per node every dispatch spawned a
handler that finished, every completion was satisfied, nothing is left
queued, and the handler-latency histogram accounts for every handler;
the host thread's fiber-stack gauges (sim/fiber_stacks/mapped and
pooled) are non-negative integers with pooled <= mapped, and once more
than 1000 handlers were spawned fewer stacks are mapped than were
spawned (the stack count is bounded by live fibers, not by requests);
the engine's event gauges (sim/events/dispatched and spin_granules) are
non-negative integers, and the per-CPU nodeN/cpuC/spin_granules counters
(granules re-armed without a fiber switch) sum to at most the granules
the engine ran from its side list.
With --expect-rma, additionally asserts the one-sided conservation laws
(src/nmad/rma): per node the eager/rendezvous split accounts for every
put issued, every opened epoch closed, no wire op was dropped as
malformed, and nothing is left in flight (ops_pending and fences_parked
gauges are zero); globally every put/accumulate issued was applied
exactly once, every get was served and completed, and every fence
request was acked and received; and some compute chunk ran ahead
(nodeN/cpuC/chunks_inlined > 0 somewhere).  With --expect-shards, additionally
asserts the per-shard matching
conservation laws (src/nmad/matching): on every shard the posted receives
split exactly into matched and still-pending, arrivals split into matched
and buffered, buffered messages into claimed and still-unexpected, and
matches into match-on-arrival plus claim-from-buffer; summed over a
node's shards, the posted receives equal the node's nm/recvs counter; and
every shard reports its live sequence-cursor count (the flows gauge) as a
non-negative integer.
Every document's per-core run-ahead counters must satisfy
nodeN/cpuC/chunks_inlined <= nodeN/cpuC/compute_chunks.
Whenever a document carries the nm memory gauges (nodeN/nm/requests/live,
nodeN/nm/requests/pooled and nodeN/nm/gates), they are checked too: every
export is taken after the run drained, so no request may still be live
(a live one was never waited, tested or continued — a leak).  The gauges
must be non-negative integers, and gates <= node count is a schema sanity
check only (the gate index has one slot per node, so it cannot overflow).
With --expect-spans, additionally validates the causal-tracing section:
every opened span closed, every parent_span_id resolves inside its own
trace, span trees are acyclic with a single root, each tail exemplar's
critical path is a contiguous chain of non-negative segments covering
[begin, end], segment sums never exceed the trace duration, and for
complete RPC exemplars the segments reconstruct the end-to-end latency
to within 1%.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
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


def check_stat(attr: dict, name: str) -> dict:
    s = attr.get(name)
    if not isinstance(s, dict):
        fail(f"attribution.{name} missing")
    for key in ("count", "mean", "min", "max"):
        if not isinstance(s.get(key), (int, float)):
            fail(f"attribution.{name}.{key} missing or non-numeric")
    if s["count"] > 0 and not (s["min"] <= s["mean"] <= s["max"]):
        fail(f"attribution.{name}: min <= mean <= max violated: {s}")
    return s


def check_document(path: str) -> dict:
    doc = load(path)
    if doc.get("schema") != "pm2-metrics-v1":
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("sim_time_us"), (int, float)):
        fail(f"{path}: sim_time_us missing")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: metrics section missing")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"{path}: metrics.{section} missing")
    counters = metrics["counters"]
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name} not a non-negative integer")
    # Every report line has a registry source; spot-check the core ones.
    for required in ("node0/nm/sends", "node0/nm/recvs",
                     "attribution/sends", "attribution/pairs"):
        if required not in counters:
            fail(f"{path}: required counter {required} absent")

    attr = doc.get("attribution")
    if not isinstance(attr, dict):
        fail(f"{path}: attribution section missing")
    for field in ("sends", "recvs", "pairs", "offloaded", "retransmitted",
                  "dropped"):
        if not isinstance(attr.get(field), int):
            fail(f"{path}: attribution.{field} missing")
    for name in ("critical_path_us", "offloaded_us", "send_critical_us",
                 "recv_critical_us", "wire_us", "wait_us"):
        check_stat(attr, name)
    if attr["pairs"] > max(attr["sends"], attr["recvs"]):
        fail(f"{path}: more pairs than requests ({attr['pairs']})")
    if attr["critical_path_us"]["count"] != attr["sends"] + attr["recvs"]:
        fail(f"{path}: critical_path count != sends + recvs")
    check_nm_memory(path, counters, metrics["gauges"])
    check_run_ahead(path, counters)
    print(f"check_metrics: {path}: ok "
          f"({attr['sends']} sends, {attr['recvs']} recvs, "
          f"crit {attr['critical_path_us']['mean']:.2f} us, "
          f"offl {attr['offloaded_us']['mean']:.2f} us)")
    return doc


def check_nm_memory(path: str, counters: dict, gauges: dict) -> None:
    nodes = sorted({name.split("/")[0] for name in counters
                    if name.startswith("node") and name.endswith("/nm/sends")})
    checked = pooled_max = gates_max = 0
    for node in nodes:
        names = [f"{node}/nm/requests/live", f"{node}/nm/requests/pooled",
                 f"{node}/nm/gates"]
        values = [gauges.get(n) for n in names]
        if all(v is None for v in values):
            continue
        for name, v in zip(names, values):
            if not isinstance(v, (int, float)) or v < 0 or v != int(v):
                fail(f"{path}: gauge {name} missing or not a non-negative "
                     f"integer ({v!r})")
        live, pooled, gates = values
        if live != 0:
            fail(f"{path}: {node}: {int(live)} nm request(s) still live in a "
                 f"drained export (never waited, tested or continued)")
        if gates > len(nodes):
            fail(f"{path}: {node}: {int(gates)} gates for a "
                 f"{len(nodes)}-node cluster")
        checked += 1
        pooled_max = max(pooled_max, int(pooled))
        gates_max = max(gates_max, int(gates))
    if checked:
        print(f"check_metrics: {path}: nm memory ok ({checked} nodes drained; "
              f"pool high-water <= {pooled_max} requests, <= {gates_max} "
              f"gates per node)")


def inlined_chunks(counters: dict) -> int:
    return sum(v for name, v in counters.items()
               if name.startswith("node") and name.endswith("/chunks_inlined"))


def check_run_ahead(path: str, counters: dict) -> None:
    cpus = sorted(name[:-len("/compute_chunks")] for name in counters
                  if name.startswith("node")
                  and name.endswith("/compute_chunks"))
    for cpu in cpus:
        chunks = counters[f"{cpu}/compute_chunks"]
        inlined = counters.get(f"{cpu}/chunks_inlined")
        if not isinstance(inlined, int) or inlined < 0:
            fail(f"{path}: counter {cpu}/chunks_inlined absent or negative "
                 f"({inlined!r})")
        if inlined > chunks:
            fail(f"{path}: {cpu} ran {inlined} chunks ahead of "
                 f"{chunks} compute chunks")
    if cpus:
        print(f"check_metrics: {path}: run-ahead ok "
              f"({inlined_chunks(counters)} of "
              f"{sum(counters[f'{c}/compute_chunks'] for c in cpus)} compute "
              f"chunks inlined on {len(cpus)} cores)")


def check_coll(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    nodes = sorted({name.split("/")[0] for name in counters
                    if "/coll/" in name})
    if not nodes:
        fail(f"{path}: no nodeN/coll counters (collective engine not bound)")
    started = completed = 0
    algos = 0
    for node in nodes:
        pfx = f"{node}/coll"
        for req in ("started", "completed", "ops_executed", "ops_send",
                    "ops_recv", "ops_reduce", "ops_copy", "tag_blocks"):
            if f"{pfx}/{req}" not in counters:
                fail(f"{path}: counter {pfx}/{req} absent")
        if counters[f"{pfx}/started"] != counters[f"{pfx}/completed"]:
            fail(f"{path}: {pfx}: started != completed "
                 f"({counters[f'{pfx}/started']} vs "
                 f"{counters[f'{pfx}/completed']})")
        kinds = sum(counters[f"{pfx}/ops_{k}"]
                    for k in ("send", "recv", "reduce", "copy"))
        if counters[f"{pfx}/ops_executed"] != kinds:
            fail(f"{path}: {pfx}: ops_executed != sum of op kinds")
        started += counters[f"{pfx}/started"]
        completed += counters[f"{pfx}/completed"]
        algos += sum(v for name, v in counters.items()
                     if name.startswith(f"{pfx}/algo/"))
    if started == 0:
        fail(f"{path}: no collectives ran")
    if algos != started:
        fail(f"{path}: per-algorithm counters ({algos}) do not account "
             f"for every started collective ({started})")
    tags = {gauges.get(f"{node}/coll/tags_used") for node in nodes}
    if len(tags) != 1 or None in tags:
        fail(f"{path}: coll tag band not in lockstep across nodes: {tags}")
    print(f"check_metrics: {path}: coll ok ({started} collectives on "
          f"{len(nodes)} nodes, {tags.pop()} tags in lockstep)")


def check_locks(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    histograms = doc["metrics"]["histograms"]
    nodes = sorted({name.split("/")[0] for name in counters
                    if name.startswith("node") and "/locks/engine/" in name})
    if not nodes:
        fail(f"{path}: no nodeN/locks/engine counters (lock profiler off?)")
    total_acq = total_contended = 0
    for node in nodes:
        pfx = f"{node}/locks/engine"
        acq = counters.get(f"{pfx}/acq")
        contended = counters.get(f"{pfx}/contended")
        if not isinstance(acq, int) or acq <= 0:
            fail(f"{path}: {pfx}/acq missing or zero")
        if not isinstance(contended, int) or contended > acq:
            fail(f"{path}: {pfx}/contended missing or > acq")
        for hist, want in (("wait_us", contended), ("hold_us", acq)):
            h = histograms.get(f"{pfx}/{hist}")
            if not isinstance(h, dict):
                fail(f"{path}: histogram {pfx}/{hist} absent")
            if h.get("total") != want:
                fail(f"{path}: {pfx}/{hist} total {h.get('total')} != {want}")
        total_acq += acq
        total_contended += contended
    # Core-state timeline: the five buckets account for every simulated
    # nanosecond on every core.  sim_time_us is printed with exactly three
    # decimals, so the ns round-trip is lossless.
    sim_ns = round(doc["sim_time_us"] * 1000)
    states = ("idle", "app", "engine", "tasklet", "blocked")
    cores = sorted({name.rsplit("/state/", 1)[0] for name in counters
                    if "/state/" in name})
    if not cores:
        fail(f"{path}: no per-core state counters")
    for core in cores:
        total = 0
        for state in states:
            v = counters.get(f"{core}/state/{state}_ns")
            if not isinstance(v, int):
                fail(f"{path}: counter {core}/state/{state}_ns absent")
            total += v
        if total != sim_ns:
            fail(f"{path}: {core} states sum to {total} ns, "
                 f"expected {sim_ns} ns")
    # PIOMan progress sources: every node with a server reports each
    # source's polls and hits (hits <= polls), and the rounds cores opened
    # in engine context are a subset of the server's poll rounds.
    servers = sorted({name.split("/")[0] for name in counters
                      if name.startswith("node") and
                      name.endswith("/piom/poll/rounds")})
    if not servers:
        fail(f"{path}: no nodeN/piom/poll/rounds counters (PIOMan off?)")
    total_rounds = total_engine = 0
    sources = set()
    for node in servers:
        polls = {name[len(f"{node}/piom/source/"):-len("/polls")]: v
                 for name, v in counters.items()
                 if name.startswith(f"{node}/piom/source/")
                 and name.endswith("/polls")}
        if not polls:
            fail(f"{path}: {node} reports no piom/source/<name>/polls")
        for src, n in polls.items():
            hits = counters.get(f"{node}/piom/source/{src}/hits")
            if not isinstance(n, int) or not isinstance(hits, int):
                fail(f"{path}: {node}/piom/source/{src} polls/hits missing")
            if hits > n:
                fail(f"{path}: {node}/piom/source/{src}: {hits} hits > "
                     f"{n} polls")
            sources.add(src)
        total_rounds += counters[f"{node}/piom/poll/rounds"]
        engine = [v for name, v in counters.items()
                  if name.startswith(f"{node}/cpu")
                  and name.endswith("/engine_polls")]
        if not engine:
            fail(f"{path}: {node} has no cpuC/engine_polls counters")
        total_engine += sum(engine)
    if total_engine > total_rounds:
        fail(f"{path}: {total_engine} rounds opened in engine context > "
             f"{total_rounds} poll rounds")
    print(f"check_metrics: {path}: locks ok ({total_acq} engine-lock acq, "
          f"{total_contended} contended on {len(nodes)} nodes; "
          f"{len(cores)} cores' state buckets sum to {sim_ns} ns; "
          f"{total_engine} of {total_rounds} poll rounds opened in engine "
          f"context, sources {', '.join(sorted(sources))})")


def check_rpc(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    histograms = doc["metrics"]["histograms"]
    nodes = sorted({name.split("/")[0] for name in counters
                    if "/rpc/" in name})
    if not nodes:
        fail(f"{path}: no nodeN/rpc counters (rpc engine not bound)")
    issued = dispatched = sig_sent = sig_delivered = 0
    for node in nodes:
        pfx = f"{node}/rpc"
        for req in ("issued", "dispatched", "handler_spawns",
                    "handlers_done", "completions_created",
                    "completions_done", "signals_sent", "signals_delivered",
                    "queue_depth_max"):
            if f"{pfx}/{req}" not in counters:
                fail(f"{path}: counter {pfx}/{req} absent")
        if not (counters[f"{pfx}/dispatched"]
                == counters[f"{pfx}/handler_spawns"]
                == counters[f"{pfx}/handlers_done"]):
            fail(f"{path}: {pfx}: dispatched/spawned/done disagree "
                 f"({counters[f'{pfx}/dispatched']}, "
                 f"{counters[f'{pfx}/handler_spawns']}, "
                 f"{counters[f'{pfx}/handlers_done']})")
        if (counters[f"{pfx}/completions_created"]
                != counters[f"{pfx}/completions_done"]):
            fail(f"{path}: {pfx}: completions created != done "
                 f"({counters[f'{pfx}/completions_created']} vs "
                 f"{counters[f'{pfx}/completions_done']})")
        if gauges.get(f"{pfx}/queue_depth") != 0:
            fail(f"{path}: {pfx}: undispatched messages left in the inbox "
                 f"({gauges.get(f'{pfx}/queue_depth')})")
        h = histograms.get(f"{pfx}/handler_ns")
        if not isinstance(h, dict):
            fail(f"{path}: histogram {pfx}/handler_ns absent")
        if h.get("total") != counters[f"{pfx}/handlers_done"]:
            fail(f"{path}: {pfx}/handler_ns total {h.get('total')} != "
                 f"handlers_done {counters[f'{pfx}/handlers_done']}")
        issued += counters[f"{pfx}/issued"]
        dispatched += counters[f"{pfx}/dispatched"]
        sig_sent += counters[f"{pfx}/signals_sent"]
        sig_delivered += counters[f"{pfx}/signals_delivered"]
    if issued == 0:
        fail(f"{path}: no RPCs ran")
    if issued != dispatched:
        fail(f"{path}: {issued} RPCs issued but {dispatched} dispatched")
    if sig_sent != sig_delivered:
        fail(f"{path}: {sig_sent} signals sent but {sig_delivered} delivered")
    stacks = {}
    for kind in ("mapped", "pooled"):
        v = gauges.get(f"sim/fiber_stacks/{kind}")
        if not isinstance(v, (int, float)) or v < 0 or v != int(v):
            fail(f"{path}: gauge sim/fiber_stacks/{kind} absent or not a "
                 f"non-negative integer ({v!r})")
        stacks[kind] = int(v)
    if stacks["pooled"] > stacks["mapped"]:
        fail(f"{path}: {stacks['pooled']} fiber stacks pooled but only "
             f"{stacks['mapped']} mapped")
    spawns = sum(counters[f"{node}/rpc/handler_spawns"] for node in nodes)
    if spawns > 1000 and stacks["mapped"] >= spawns:
        fail(f"{path}: {stacks['mapped']} fiber stacks mapped for {spawns} "
             f"handler spawns (stack count grows with requests)")
    events = {}
    for kind in ("dispatched", "spin_granules"):
        v = gauges.get(f"sim/events/{kind}")
        if not isinstance(v, (int, float)) or v < 0 or v != int(v):
            fail(f"{path}: gauge sim/events/{kind} absent or not a "
                 f"non-negative integer ({v!r})")
        events[kind] = int(v)
    rearmed = sum(v for name, v in counters.items()
                  if name.startswith("node") and "/cpu" in name
                  and name.endswith("/spin_granules"))
    if rearmed > events["spin_granules"]:
        fail(f"{path}: cores re-armed {rearmed} spin granules but the "
             f"engine ran only {events['spin_granules']}")
    print(f"check_metrics: {path}: rpc ok ({issued} calls dispatched, "
          f"{sig_sent} signals delivered on {len(nodes)} nodes; "
          f"{stacks['mapped']} fiber stacks mapped, {stacks['pooled']} "
          f"pooled, for {spawns} handler spawns; {events['dispatched']} "
          f"events + {events['spin_granules']} spin granules, "
          f"{rearmed} re-armed)")


def check_rma(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    nodes = sorted({name.split("/")[0] for name in counters
                    if "/rma/" in name})
    if not nodes:
        fail(f"{path}: no nodeN/rma counters (rma engine not bound)")
    fields = ("api_calls", "wins_created", "epochs_opened", "epochs_closed",
              "puts_issued", "puts_eager", "puts_rdv", "puts_applied",
              "accs_issued", "accs_applied", "gets_issued", "gets_served",
              "gets_completed", "flushes", "flush_reqs", "flush_acks",
              "flush_acks_rx", "bytes_put", "bytes_got", "bytes_acc",
              "dropped_out_of_range")
    tot = {f: 0 for f in fields}
    for node in nodes:
        pfx = f"{node}/rma"
        c = {}
        for req in fields:
            v = counters.get(f"{pfx}/{req}")
            if not isinstance(v, int):
                fail(f"{path}: counter {pfx}/{req} absent")
            c[req] = v
            tot[req] += v
        if c["puts_eager"] + c["puts_rdv"] != c["puts_issued"]:
            fail(f"{path}: {pfx}: eager + rdv != puts_issued "
                 f"({c['puts_eager']} + {c['puts_rdv']} != "
                 f"{c['puts_issued']})")
        if c["epochs_opened"] != c["epochs_closed"]:
            fail(f"{path}: {pfx}: epochs opened != closed "
                 f"({c['epochs_opened']} vs {c['epochs_closed']})")
        if c["dropped_out_of_range"] != 0:
            fail(f"{path}: {pfx}: {c['dropped_out_of_range']} wire ops "
                 f"dropped as malformed")
        for g in ("ops_pending", "fences_parked"):
            v = gauges.get(f"{pfx}/{g}")
            if v != 0:
                fail(f"{path}: {pfx}/{g} is {v}, expected 0 at quiescence")
    ops = tot["puts_issued"] + tot["accs_issued"] + tot["gets_issued"]
    if ops == 0:
        fail(f"{path}: no RMA operations ran")
    laws = (
        ("puts issued == applied", tot["puts_issued"], tot["puts_applied"]),
        ("accs issued == applied", tot["accs_issued"], tot["accs_applied"]),
        ("gets issued == served", tot["gets_issued"], tot["gets_served"]),
        ("gets issued == completed", tot["gets_issued"],
         tot["gets_completed"]),
        ("fence reqs == acks sent", tot["flush_reqs"], tot["flush_acks"]),
        ("fence reqs == acks received", tot["flush_reqs"],
         tot["flush_acks_rx"]),
    )
    for law, lhs, rhs in laws:
        if lhs != rhs:
            fail(f"{path}: rma: {law} violated ({lhs} != {rhs})")
    if tot["flush_reqs"] > tot["flushes"]:
        fail(f"{path}: rma: more fence requests ({tot['flush_reqs']}) than "
             f"flush calls ({tot['flushes']})")
    if inlined_chunks(counters) == 0:
        fail(f"{path}: no compute chunk ran ahead (nodeN/cpuC/"
             f"chunks_inlined all zero)")
    print(f"check_metrics: {path}: rma ok ({tot['puts_issued']} puts, "
          f"{tot['accs_issued']} accumulates, {tot['gets_issued']} gets "
          f"conserved across {len(nodes)} nodes; {tot['flush_reqs']} fences "
          f"retired)")


def check_shards(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    nodes = sorted({name.split("/")[0] for name in counters
                    if name.startswith("node") and "/nm/shard" in name})
    if not nodes:
        fail(f"{path}: no nodeN/nm/shardS counters (matching store unbound)")
    total_shards = total_posted = 0
    for node in nodes:
        shards = sorted({name.split("/")[2] for name in counters
                         if name.startswith(f"{node}/nm/shard")})
        posted_sum = 0
        for shard in shards:
            pfx = f"{node}/nm/{shard}"
            c = {}
            for req in ("recvs_posted", "recvs_matched", "arrivals",
                        "arrivals_matched", "arrivals_buffered",
                        "buffered_claimed"):
                v = counters.get(f"{pfx}/{req}")
                if not isinstance(v, int):
                    fail(f"{path}: counter {pfx}/{req} absent")
                c[req] = v
            g = {}
            for req in ("posted_pending", "unexpected_pending"):
                v = gauges.get(f"{pfx}/{req}")
                if not isinstance(v, (int, float)) or v < 0:
                    fail(f"{path}: gauge {pfx}/{req} absent or negative")
                g[req] = round(v)
            flows = gauges.get(f"{pfx}/flows")
            if (not isinstance(flows, (int, float)) or flows < 0
                    or flows != int(flows)):
                fail(f"{path}: gauge {pfx}/flows absent or not a "
                     f"non-negative integer")
            laws = (
                ("recvs_posted == recvs_matched + posted_pending",
                 c["recvs_posted"], c["recvs_matched"] + g["posted_pending"]),
                ("arrivals == arrivals_matched + arrivals_buffered",
                 c["arrivals"], c["arrivals_matched"]
                 + c["arrivals_buffered"]),
                ("arrivals_buffered == buffered_claimed + unexpected_pending",
                 c["arrivals_buffered"], c["buffered_claimed"]
                 + g["unexpected_pending"]),
                ("recvs_matched == arrivals_matched + buffered_claimed",
                 c["recvs_matched"], c["arrivals_matched"]
                 + c["buffered_claimed"]),
            )
            for law, lhs, rhs in laws:
                if lhs != rhs:
                    fail(f"{path}: {pfx}: {law} violated ({lhs} != {rhs})")
            posted_sum += c["recvs_posted"]
        node_recvs = counters.get(f"{node}/nm/recvs")
        if posted_sum != node_recvs:
            fail(f"{path}: {node}: shard recvs_posted sum {posted_sum} != "
                 f"{node}/nm/recvs {node_recvs}")
        total_shards += len(shards)
        total_posted += posted_sum
    print(f"check_metrics: {path}: shards ok ({total_shards} shards on "
          f"{len(nodes)} nodes conserve {total_posted} posted receives)")


def check_spans(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    tracing = doc.get("tracing")
    if not isinstance(tracing, dict):
        fail(f"{path}: tracing section missing (ClusterConfig::tracing off?)")
    for field in ("events", "spans", "open_spans", "traces",
                  "traces_complete"):
        if not isinstance(tracing.get(field), int):
            fail(f"{path}: tracing.{field} missing")
    if tracing["events"] == 0:
        fail(f"{path}: tracing enabled but no events recorded")
    if tracing["open_spans"] != 0:
        fail(f"{path}: {tracing['open_spans']} spans never closed")
    # Cross-check the assembly totals against the per-node recorder
    # counters — the two are produced by independent code paths.
    opened = sum(v for name, v in counters.items()
                 if name.endswith("/trace/spans_opened"))
    closed = sum(v for name, v in counters.items()
                 if name.endswith("/trace/spans_closed"))
    events = sum(v for name, v in counters.items()
                 if name.endswith("/trace/events"))
    if opened == 0:
        fail(f"{path}: no nodeN/rpc/trace counters (recorders not bound)")
    if opened != closed:
        fail(f"{path}: spans_opened {opened} != spans_closed {closed}")
    if opened != tracing["spans"]:
        fail(f"{path}: recorder counters opened {opened} spans but the "
             f"assembly holds {tracing['spans']}")
    if events != tracing["events"]:
        fail(f"{path}: recorder counters hold {events} events but the "
             f"assembly holds {tracing['events']}")

    exemplars = tracing.get("exemplars")
    if not isinstance(exemplars, list) or not exemplars:
        fail(f"{path}: tracing.exemplars missing or empty")
    reconstructed = 0
    for ex in exemplars:
        tid = ex.get("trace_id")
        spans = ex.get("spans")
        if not isinstance(spans, list) or not spans:
            fail(f"{path}: trace {tid}: no spans")
        by_id = {}
        for s in spans:
            if s["id"] in by_id:
                fail(f"{path}: trace {tid}: duplicate span id {s['id']}")
            by_id[s["id"]] = s
        roots = 0
        for s in spans:
            if not s["closed"]:
                fail(f"{path}: trace {tid}: span {s['id']} never closed")
            if s["begin_ns"] > s["end_ns"]:
                fail(f"{path}: trace {tid}: span {s['id']} ends before "
                     f"it begins")
            if s["parent"] == 0:
                roots += 1
            elif s["parent"] not in by_id:
                fail(f"{path}: trace {tid}: span {s['id']} parent "
                     f"{s['parent']} does not resolve within the trace")
        if roots != 1:
            fail(f"{path}: trace {tid}: {roots} root spans, expected 1")
        for s in spans:  # acyclic: every parent chain must reach the root
            hops, cur = 0, s
            while cur["parent"] != 0:
                cur = by_id[cur["parent"]]
                hops += 1
                if hops > len(spans):
                    fail(f"{path}: trace {tid}: span parent cycle via "
                         f"{s['id']}")
        cp = ex.get("critical_path")
        if not isinstance(cp, list) or not cp:
            fail(f"{path}: trace {tid}: no critical path")
        total = 0
        for i, seg in enumerate(cp):
            if seg["to_ns"] < seg["from_ns"]:
                fail(f"{path}: trace {tid}: negative segment "
                     f"{seg['segment']}")
            if i + 1 < len(cp) and seg["to_ns"] != cp[i + 1]["from_ns"]:
                fail(f"{path}: trace {tid}: critical path not contiguous "
                     f"at {seg['segment']}")
            total += seg["to_ns"] - seg["from_ns"]
        e2e = ex["e2e_ns"]
        if total > e2e:
            fail(f"{path}: trace {tid}: segment sum {total} ns exceeds "
                 f"trace duration {e2e} ns")
        if ex.get("complete") and ex.get("kind") == "rpc":
            if abs(total - e2e) > 0.01 * e2e:
                fail(f"{path}: trace {tid}: segments sum to {total} ns "
                     f"but e2e is {e2e} ns (>1% reconstruction error)")
            reconstructed += 1
    if reconstructed == 0:
        fail(f"{path}: no complete RPC exemplar to reconstruct")
    print(f"check_metrics: {path}: spans ok ({tracing['spans']} spans "
          f"closed across {tracing['traces']} traces; {len(exemplars)} "
          f"exemplars, {reconstructed} critical paths reconstruct e2e "
          f"within 1%)")


def main() -> None:
    args = sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        sys.exit(0 if args else 2)

    offload = check_document(args[0])
    if "--expect-coll" in args:
        check_coll(args[0], offload)
        args = [a for a in args if a != "--expect-coll"]
    if "--expect-locks" in args:
        check_locks(args[0], offload)
        args = [a for a in args if a != "--expect-locks"]
    if "--expect-rpc" in args:
        check_rpc(args[0], offload)
        args = [a for a in args if a != "--expect-rpc"]
    if "--expect-rma" in args:
        check_rma(args[0], offload)
        args = [a for a in args if a != "--expect-rma"]
    if "--expect-shards" in args:
        check_shards(args[0], offload)
        args = [a for a in args if a != "--expect-shards"]
    if "--expect-spans" in args:
        check_spans(args[0], offload)
        args = [a for a in args if a != "--expect-spans"]
    if len(args) >= 3 and args[1] == "--expect-offload-beats":
        baseline = check_document(args[2])
        off_crit = offload["attribution"]["critical_path_us"]["mean"]
        base_crit = baseline["attribution"]["critical_path_us"]["mean"]
        if offload["attribution"]["offloaded"] == 0:
            fail("offload run reports zero offloaded requests")
        if not off_crit < base_crit:
            fail(f"offload critical path {off_crit:.2f} us is not below "
                 f"baseline {base_crit:.2f} us")
        print(f"check_metrics: offload beats baseline "
              f"({off_crit:.2f} < {base_crit:.2f} us critical path)")


if __name__ == "__main__":
    main()
