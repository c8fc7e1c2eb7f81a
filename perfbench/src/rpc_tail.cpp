// rpc_tail: 64 nodes x 4 cores, PIOMan mode, RPC on.  Nodes 0..3 serve,
// nodes 4..63 are open-loop Poisson clients at per-server utilization
// rho = 0.85 with exponential service times (mean 8 us) - the
// service_tail_latency scenario with many more requests per client.  RPC
// receives are posted only after the request lands in the unexpected
// store (probe_size), unlike p2p_mix's preposted receives.  One op = one
// RPC, timed from its *scheduled* arrival to the completion signal, so a
// stalled generator shows up as latency; how late the generator ran is
// reported separately.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kNodes = 64;
constexpr unsigned kServers = 4;
constexpr unsigned kClients = kNodes - kServers;
constexpr unsigned kPerClient = 400;
constexpr double kRho = 0.85;
constexpr double kMeanServiceNs = 8000.0;
constexpr std::uint32_t kWork = 1;

struct Request {
  SimTime arrival = 0;  // scheduled issue time
  unsigned server = 0;
  SimDuration service_ns = 0;
};

double p99_us(std::vector<SimDuration> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
  return us(v[rank - 1]);
}

}  // namespace

Result run_rpc_tail(const Options& opt, SpanLog& spans) {
  Result r;
  const double t_setup = host_s();

  // Per-server arrival rate rho / mean service, split evenly over clients.
  const double mean_gap_ns = static_cast<double>(kClients) * kMeanServiceNs /
                             (static_cast<double>(kServers) * kRho);
  pm2::sim::Rng rng(opt.seed);
  std::vector<std::vector<Request>> reqs(kClients);
  for (auto& client : reqs) {
    double t = 0;
    for (unsigned k = 0; k < kPerClient; ++k) {
      t += rng.exponential(mean_gap_ns);
      Request q;
      q.arrival = static_cast<SimTime>(t);
      q.server = static_cast<unsigned>(rng.next_below(kServers));
      q.service_ns = 1 + static_cast<SimDuration>(rng.exponential(kMeanServiceNs));
      client.push_back(q);
    }
  }

  pm2::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;
  cfg.rpc = true;
  set_traced(cfg, opt.traced);
  pm2::Cluster cluster(cfg);

  SimDuration compute_wait = 0;
  for (unsigned s = 0; s < kServers; ++s) {
    cluster.rpc(s).register_service(
        kWork, [&cluster, &compute_wait](pm2::rpc::Context& ctx) {
          const auto work = static_cast<SimDuration>(ctx.args().u64());
          const pm2::rpc::CompletionRef done = ctx.args().completion();
          const SimTime t0 = cluster.now();
          pm2::marcel::this_thread::compute(work);
          compute_wait += (cluster.now() - t0) - work;
          ctx.engine().signal(done);
        });
  }

  // Per-op outcome: latency from the scheduled arrival (kFailed = never
  // completed or signalled wrongly) and how late the issue was.
  const std::size_t ops = std::size_t{kClients} * kPerClient;
  std::vector<SimDuration> lat(ops, kFailed);
  std::vector<SimDuration> late(ops, 0);
  SimTime last_end = 0;
  for (unsigned c = 0; c < kClients; ++c) {
    const unsigned node = kServers + c;
    cluster.run_on(node, [&, c, node] {
      pm2::rpc::Engine& eng = cluster.rpc(node);
      std::vector<std::unique_ptr<pm2::rpc::Completion>> done;
      done.reserve(kPerClient);
      for (unsigned k = 0; k < kPerClient; ++k) {
        const Request& q = reqs[c][k];
        const std::uint64_t op = std::uint64_t{c} * kPerClient + k;
        if (q.arrival > cluster.now()) {
          pm2::marcel::this_thread::sleep(q.arrival - cluster.now());
        }
        const SimTime t0 = cluster.now();
        late[op] = t0 - q.arrival;
        done.push_back(std::make_unique<pm2::rpc::Completion>(eng));
        pm2::rpc::Completion& comp = *done.back();
        eng.call(q.server, kWork, [&](pm2::rpc::ArgWriter& aw) {
          aw.u64(static_cast<std::uint64_t>(q.service_ns));
          aw.completion(comp.ref());
        });
        spans.add("rpc.call", node, op, t0, cluster.now());
      }
      for (unsigned k = 0; k < kPerClient; ++k) {
        const std::uint64_t op = std::uint64_t{c} * kPerClient + k;
        const SimTime t0 = cluster.now();
        done[k]->wait();
        spans.add("rpc.wait", node, op, t0, cluster.now());
        const SimTime at = done[k]->done_at();
        last_end = std::max(last_end, at);
        const SimTime due = reqs[c][k].arrival;
        spans.add("op", node, op, due, at);
        // Signalled exactly once: count exhausted, stamped after issue.
        // (Over-signalling aborts in Completion::deliver; the registry
        // law issued == signals_delivered catches a lost or extra one.)
        if (done[k]->done() && at >= due + late[op]) lat[op] = at - due;
      }
    });
  }
  r.setup_cpu_s = host_s() - t_setup;

  timed_run(cluster, r);
  r.vt_span = last_end;

  r.attempted = ops;
  for (std::size_t op = 0; op < ops; ++op) {
    if (lat[op] != kFailed) {
      r.lat.push_back(lat[op]);
    } else {
      ++r.failed;
    }
  }
  check_laws(cluster, r);
  read_layers(cluster, r);
  r.layer["marcel.compute_wait_us"] = us(compute_wait);
  r.layer["bench.gen_late_p99_us"] = p99_us(late);
  r.traced_only["rpc.call_us"] = spans.mean_us("rpc.call");
  r.traced_only["rpc.wait_us"] = spans.mean_us("rpc.wait");
  // p99 of each critical-path segment, from the histograms a traced
  // cluster folds per (client node, service); absent when untraced.
  for (const char* seg : {"wire", "unexpected_dwell", "dispatch_queue",
                          "handler", "signal_return"}) {
    const std::string suffix =
        "/rpc/trace/svc" + std::to_string(kWork) + "/" + seg + "_ns";
    r.traced_only["rpc.seg." + std::string(seg) + "_us"] =
        merged_percentile(cluster, suffix.c_str(), 99) / 1000.0;
  }
  return r;
}

}  // namespace perfbench
