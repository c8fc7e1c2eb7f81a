// p2p_mix: 2 nodes x 8 cores, PIOMan mode, default nm::Config (engine
// lock on, single matching path).  Four pinned sender/receiver pairs run a
// closed loop of the paper's Fig. 4 kernel - isend(size); compute(5 us);
// wait - followed by an 8 B ack, leaving 4 idle cores per node to poll and
// take offloaded work.  Sizes span 8 B .. 64 KiB: 85% at or below 512 B,
// 12% mid-sized eager, 3% 64 KiB (rendezvous), in a seeded order.  One
// op = one round trip, timed on the sender from isend to ack arrival.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kPairs = 4;
constexpr unsigned kOpsPerPair = 2500;
constexpr unsigned kBlock = 100;  // divides kOpsPerPair
constexpr std::size_t kMaxBytes = 64 * 1024;
constexpr SimDuration kCompute = 5 * pm2::kUs;

/// Log-uniform interpolation between lo and hi at fraction f in [0, 1).
std::size_t log_uniform(double lo, double hi, double f) {
  return static_cast<std::size_t>(std::exp(std::log(lo) +
                                           f * (std::log(hi) - std::log(lo))));
}

/// Message size at quantile u in [0, 1): 3% 64 KiB (rendezvous), 12%
/// log-uniform over 513 B .. 16 KiB, 85% log-uniform over 8 .. 512 B.
std::size_t size_at(double u) {
  if (u < 0.03) return kMaxBytes;
  if (u < 0.15) return log_uniform(513, 16 * 1024, (u - 0.03) / 0.12);
  return log_uniform(8, 512, (u - 0.15) / 0.85);
}

/// The per-message byte pattern both sides derive from the message seed.
std::byte pattern(std::uint64_t base, std::size_t i) {
  return static_cast<std::byte>((base >> (8 * (i & 7))) + i);
}

}  // namespace

Result run_p2p_mix(const Options& opt, SpanLog& spans) {
  Result r;
  const double t_setup = host_s();

  // Each block of kBlock messages holds the whole stratified size mix (one
  // size per quantile) in a seeded order: the seed moves the interleaving
  // of large and small messages across pairs, not the mix or its density.
  pm2::sim::Rng rng(opt.seed);
  std::vector<std::vector<std::size_t>> sizes(kPairs);
  std::vector<std::vector<std::uint64_t>> bases(kPairs);
  for (unsigned p = 0; p < kPairs; ++p) {
    for (unsigned k = 0; k < kOpsPerPair; ++k) {
      sizes[p].push_back(size_at((k % kBlock + 0.5) / kBlock));
      bases[p].push_back(rng.next());
    }
    for (unsigned b = 0; b < kOpsPerPair; b += kBlock) {
      for (unsigned k = kBlock - 1; k > 0; --k) {
        std::swap(sizes[p][b + k], sizes[p][b + rng.next_below(k + 1)]);
      }
    }
  }

  pm2::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 8;
  cfg.pioman = true;
  set_traced(cfg, opt.traced);
  pm2::Cluster cluster(cfg);

  // Per-op outcome: latency once the sender saw the ack, and whether the
  // receiver verified the payload and the sender verified the ack.
  const std::size_t ops = std::size_t{kPairs} * kOpsPerPair;
  std::vector<SimDuration> lat(ops, kFailed);
  std::vector<char> payload_ok(ops, 0), ack_ok(ops, 0);
  SimDuration compute_wait = 0;
  SimTime last_end = 0;

  auto timed_compute = [&cluster, &compute_wait, &spans](unsigned node,
                                                         std::uint64_t op) {
    const SimTime t0 = cluster.now();
    pm2::marcel::this_thread::compute(kCompute);
    const SimTime t1 = cluster.now();
    compute_wait += (t1 - t0) - kCompute;
    spans.add("marcel.compute", node, op, t0, t1);
  };

  for (unsigned p = 0; p < kPairs; ++p) {
    const pm2::nm::Tag data_tag = 2 * p;
    const pm2::nm::Tag ack_tag = 2 * p + 1;
    cluster.run_on(
        0,
        [&, p, data_tag, ack_tag] {
          pm2::nm::Core& nm = cluster.comm(0);
          std::vector<std::byte> tx(kMaxBytes);
          std::uint64_t ack = 0;
          for (unsigned k = 0; k < kOpsPerPair; ++k) {
            const std::uint64_t op = std::uint64_t{p} * kOpsPerPair + k;
            const std::size_t n = sizes[p][k];
            for (std::size_t i = 0; i < n; ++i) tx[i] = pattern(bases[p][k], i);
            const SimTime t0 = cluster.now();
            pm2::nm::Request* ar =
                nm.irecv(1, ack_tag, std::as_writable_bytes(std::span(&ack, 1)));
            spans.add("nm.irecv", 0, op, t0, cluster.now());
            const SimTime t1 = cluster.now();
            pm2::nm::Request* s = nm.isend(1, data_tag, std::span(tx).first(n));
            spans.add("nm.isend", 0, op, t1, cluster.now());
            timed_compute(0, op);
            SimTime w0 = cluster.now();
            nm.wait(s);
            spans.add("nm.wait", 0, op, w0, cluster.now());
            w0 = cluster.now();
            nm.wait(ar);
            const SimTime t_end = cluster.now();
            spans.add("nm.wait", 0, op, w0, t_end);
            spans.add("op", 0, op, t0, t_end);
            lat[op] = t_end - t0;
            last_end = std::max(last_end, t_end);
            ack_ok[op] = ack == (bases[p][k] ^ k) ? 1 : 0;
          }
        },
        "sender", static_cast<int>(p));
    cluster.run_on(
        1,
        [&, p, data_tag, ack_tag] {
          pm2::nm::Core& nm = cluster.comm(1);
          std::vector<std::byte> rx(kMaxBytes);
          std::uint64_t ack = 0;
          for (unsigned k = 0; k < kOpsPerPair; ++k) {
            const std::uint64_t op = std::uint64_t{p} * kOpsPerPair + k;
            const std::size_t n = sizes[p][k];
            SimTime t0 = cluster.now();
            pm2::nm::Request* rr = nm.irecv(0, data_tag, std::span(rx).first(n));
            spans.add("nm.irecv", 1, op, t0, cluster.now());
            timed_compute(1, op);
            t0 = cluster.now();
            nm.wait(rr);
            spans.add("nm.wait", 1, op, t0, cluster.now());
            bool ok = true;
            for (std::size_t i = 0; i < n && ok; ++i) {
              ok = rx[i] == pattern(bases[p][k], i);
            }
            payload_ok[op] = ok ? 1 : 0;
            ack = bases[p][k] ^ k;
            t0 = cluster.now();
            pm2::nm::Request* s =
                nm.isend(0, ack_tag, std::as_bytes(std::span(&ack, 1)));
            spans.add("nm.isend", 1, op, t0, cluster.now());
            t0 = cluster.now();
            nm.wait(s);
            spans.add("nm.wait", 1, op, t0, cluster.now());
          }
        },
        "receiver", static_cast<int>(p));
  }
  r.setup_cpu_s = host_s() - t_setup;

  timed_run(cluster, r);
  r.vt_span = last_end;

  r.attempted = ops;
  for (std::size_t op = 0; op < ops; ++op) {
    if (lat[op] != kFailed && payload_ok[op] && ack_ok[op]) {
      r.lat.push_back(lat[op]);
    } else {
      ++r.failed;
    }
  }
  check_laws(cluster, r);
  read_layers(cluster, r);
  r.layer["marcel.compute_wait_us"] = us(compute_wait);
  r.traced_only["nmad.isend_us"] = spans.mean_us("nm.isend");
  r.traced_only["nmad.wait_us"] = spans.mean_us("nm.wait");
  return r;
}

}  // namespace perfbench
