#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace perfbench {

double SpanLog::mean_us(const char* name) const {
  const std::string_view want(name);
  double sum = 0;
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (want != s.name) continue;
    sum += us(s.end - s.begin);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.node, us(s.begin),
                 us(s.end - s.begin), static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::uint64_t node_sum(const pm2::Cluster& c, const char* suffix) {
  return c.metrics().sum("node", suffix);
}

double node_max(const pm2::Cluster& c, const char* suffix) {
  double best = 0;
  for (unsigned n = 0; n < c.nodes(); ++n) {
    best = std::max(best,
                    c.metrics().value("node" + std::to_string(n) + suffix));
  }
  return best;
}

double merged_percentile(const pm2::Cluster& c, const char* suffix,
                         double p) {
  pm2::Log2Histogram all;
  for (unsigned n = 0; n < c.nodes(); ++n) {
    const pm2::Log2Histogram* h =
        c.metrics().find_histogram("node" + std::to_string(n) + suffix);
    if (h != nullptr) all.merge(*h);
  }
  return all.percentile(p);
}

void timed_run(pm2::Cluster& cluster, Result& r) {
  // Cluster::run() is Engine::run(): step until the queue drains or
  // stop() is called, which nothing in the cluster does.  Stepping here
  // instead lets the probes run between slices, on this thread, without
  // adding an event or moving one.
  constexpr double kSliceS = 0.04;
  constexpr int kCheckEvery = 1024;
  pm2::sim::Engine& engine = cluster.engine();
  const std::uint64_t events0 = engine.events_processed();
  const std::uint64_t msgs0 = node_sum(cluster, "/nm/sends");
  double before = probe_s();
  r.probes.push_back(before);
  for (bool more = true; more;) {
    const double t0 = host_s();
    double slice = 0;
    do {
      for (int i = 0; i < kCheckEvery && (more = engine.run_one()); ++i) {
      }
      slice = host_s() - t0;
    } while (more && slice < kSliceS);
    const double after = probe_s();
    r.probes.push_back(after);
    r.run_cpu_s += slice;
    r.run_s += calibrated(slice, (before + after) / 2);
    before = after;
  }
  r.events += engine.events_processed() - events0;
  r.msgs += node_sum(cluster, "/nm/sends") - msgs0;
}

void check_laws(const pm2::Cluster& cluster, Result& r) {
  const auto law = [&r](const char* name, std::uint64_t lhs,
                        std::uint64_t rhs) {
    if (lhs == rhs) return;
    r.laws.push_back(std::string(name) + ": " + std::to_string(lhs) +
                     " != " + std::to_string(rhs));
  };
  law("nm sends == recvs", node_sum(cluster, "/nm/sends"),
      node_sum(cluster, "/nm/recvs"));
  if (cluster.config().rpc) {
    const std::uint64_t issued = node_sum(cluster, "/rpc/issued");
    law("rpc issued == dispatched", issued,
        node_sum(cluster, "/rpc/dispatched"));
    law("rpc issued == signals_delivered", issued,
        node_sum(cluster, "/rpc/signals_delivered"));
    law("rpc signals_sent == signals_delivered",
        node_sum(cluster, "/rpc/signals_sent"),
        node_sum(cluster, "/rpc/signals_delivered"));
  }
  if (cluster.config().rma) {
    law("rma puts_issued == puts_applied",
        node_sum(cluster, "/rma/puts_issued"),
        node_sum(cluster, "/rma/puts_applied"));
  }
}

void read_layers(pm2::Cluster& cluster, Result& r) {
  auto& L = r.layer;
  // Measured by the workloads around their own calls; a workload that
  // never calls into a layer reports 0 for it.
  for (const char* name : {"marcel.compute_wait_us", "bench.gen_late_p99_us"}) {
    L[name] = 0;
  }
  for (const char* name :
       {"nmad.isend_us", "nmad.wait_us", "coll.allreduce_us", "rma.put_us",
        "rma.fence_us", "rpc.call_us", "rpc.wait_us", "rpc.seg.wire_us",
        "rpc.seg.unexpected_dwell_us", "rpc.seg.dispatch_queue_us",
        "rpc.seg.handler_us", "rpc.seg.signal_return_us",
        "pm2.trace_assembly_s"}) {
    r.traced_only[name] = 0;
  }
  if (cluster.config().tracing) {
    // Host time of the cross-node assembly alone, calibrated by the last
    // probe of the run; flush_observability below then reuses the cached
    // result.
    const double t0 = host_s();
    (void)cluster.trace_assembly();
    r.traced_only["pm2.trace_assembly_s"] =
        calibrated(host_s() - t0, r.probes.back());
  }
  cluster.flush_observability();
  const auto sum = [&cluster](const char* suffix) {
    return static_cast<double>(node_sum(cluster, suffix));
  };

  L["sim.events"] = static_cast<double>(r.events);
  L["sim.events_per_msg"] =
      r.msgs == 0 ? 0.0
                  : static_cast<double>(r.events) / static_cast<double>(r.msgs);

  L["marcel.app_us"] = sum("/state/app_ns") / 1000.0;
  L["marcel.engine_us"] = sum("/state/engine_ns") / 1000.0;
  L["marcel.tasklet_us"] = sum("/state/tasklet_ns") / 1000.0;
  L["marcel.idle_us"] = sum("/state/idle_ns") / 1000.0;
  L["marcel.blocked_us"] = sum("/state/blocked_ns") / 1000.0;
  L["marcel.ctx_switches"] = sum("/ctx_switches");
  L["marcel.tasklets_run"] = sum("/tasklets_run");

  const double posted = sum("/piom/offload/posted");
  L["core.poll_rounds"] = sum("/piom/poll/rounds");
  L["core.offload_posted"] = posted;
  L["core.offload_ratio"] =
      posted == 0 ? 0.0 : sum("/piom/offload/offloaded") / posted;
  L["core.cond_waits"] = sum("/piom/cond/waits");
  L["core.passive_blocks"] = sum("/piom/cond/passive_blocks");
  L["core.interrupts"] = sum("/piom/interrupts");

  L["netsim.packets_tx"] = sum("/packets_tx");
  L["netsim.bytes_tx"] = sum("/bytes_tx");
  L["netsim.rdma_puts"] = sum("/rdma_puts");
  L["netsim.interrupts_fired"] = sum("/interrupts_fired");

  L["nmad.sends"] = sum("/nm/sends");
  L["nmad.eager_sends"] = sum("/nm/eager_sends");
  L["nmad.rdv_sends"] = sum("/nm/rdv_sends");
  L["nmad.unexpected_eager"] = sum("/nm/unexpected_eager");
  L["nmad.wire_packets"] = sum("/nm/wire_packets");
  L["nmad.aggregated_msgs"] = sum("/nm/aggregated_msgs");
  L["nmad.lock_acq"] = sum("/locks/engine/acq");
  L["nmad.lock_contended"] = sum("/locks/engine/contended");
  L["nmad.lock_wait_p99_us"] =
      merged_percentile(cluster, "/locks/engine/wait_us", 99);

  L["coll.ops_executed"] = sum("/coll/ops_executed");
  L["coll.bytes_reduced"] = sum("/coll/bytes_reduced");

  L["rma.puts_issued"] = sum("/rma/puts_issued");
  L["rma.flush_reqs"] = sum("/rma/flush_reqs");

  L["rpc.issued"] = sum("/rpc/issued");
  L["rpc.dispatched"] = sum("/rpc/dispatched");
  L["rpc.queue_depth_max"] = node_max(cluster, "/rpc/queue_depth_max");
}

}  // namespace perfbench
