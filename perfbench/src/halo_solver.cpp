// halo_solver: 256 nodes x 4 cores, app-driven mode, RMA on.  Every rank
// iterates compute (20 us mean, seeded imbalance); RMA fence; 1 KiB put
// into each ring neighbour's halo slot; fence; 128-double iallreduce_sum;
// wait.  It then checks each halo slot holds its neighbour's fill byte
// for this iteration and every reduced element equals the world size.
// One op = one rank-iteration, timed on that rank.  No PIOMan server
// exists in this mode, so the piom layer stays at zero.
#include <algorithm>
#include <span>
#include <vector>

#include "common.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kNodes = 256;
constexpr unsigned kIters = 40;
constexpr std::size_t kHalo = 1024;
constexpr std::size_t kDoubles = 128;
constexpr SimDuration kCompute = 20 * pm2::kUs;
constexpr SimDuration kJitter = 1 * pm2::kUs;  // mean of the exponential tail

bool all_equal(std::span<const std::byte> s, std::byte b) {
  for (const std::byte x : s) {
    if (x != b) return false;
  }
  return true;
}

}  // namespace

Result run_halo_solver(const Options& opt, SpanLog& spans) {
  Result r;
  const double t_setup = host_s();

  // Compute phases of kCompute on average, with an exponential tail: the
  // slowest of 256 ranks sets each iteration's pace, and with a bounded
  // jitter it would sit at the bound whatever the seed.
  pm2::sim::Rng rng(opt.seed);
  std::vector<SimDuration> compute(std::size_t{kNodes} * kIters);
  for (SimDuration& c : compute) {
    c = kCompute - kJitter +
        static_cast<SimDuration>(rng.exponential(static_cast<double>(kJitter)));
  }
  // Rank r's halo fill byte in iteration it is fill0[r] + 37 * it: seeded,
  // and different from the previous iteration's so a lost put cannot pass.
  std::vector<std::uint8_t> fill0(kNodes);
  for (std::uint8_t& f : fill0) f = static_cast<std::uint8_t>(rng.next());
  const auto fill = [&fill0](unsigned rank, unsigned it) {
    return static_cast<std::byte>(fill0[rank] + 37u * it);
  };

  pm2::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = false;
  cfg.rma = true;
  set_traced(cfg, opt.traced);
  pm2::Cluster cluster(cfg);

  // Window per rank: [from-left halo][from-right halo].  win_create is
  // collective, so set-up runs one simulation phase of its own.
  std::vector<std::vector<std::byte>> wins(kNodes,
                                           std::vector<std::byte>(2 * kHalo));
  std::vector<pm2::nm::rma::WinId> win_id(kNodes, 0);
  for (unsigned rank = 0; rank < kNodes; ++rank) {
    cluster.run_on(rank, [&cluster, &wins, &win_id, rank] {
      win_id[rank] = cluster.rma(rank).win_create(wins[rank]);
    });
  }
  cluster.run();
  r.setup_cpu_s = host_s() - t_setup;
  const SimTime t_start = cluster.now();

  const std::size_t ops = std::size_t{kNodes} * kIters;
  std::vector<SimDuration> lat(ops, kFailed);
  SimDuration compute_wait = 0;
  SimTime last_end = t_start;
  for (unsigned rank = 0; rank < kNodes; ++rank) {
    cluster.run_on(rank, [&, rank] {
      pm2::nm::rma::Engine& rma = cluster.rma(rank);
      pm2::nm::coll::Engine& coll = cluster.coll(rank);
      const pm2::nm::rma::WinId win = win_id[rank];
      const unsigned left = (rank + kNodes - 1) % kNodes;
      const unsigned right = (rank + 1) % kNodes;
      std::vector<std::byte> halo(kHalo);
      std::vector<double> sum(kDoubles);
      const auto fence = [&](std::uint64_t op) {
        const SimTime t0 = cluster.now();
        rma.fence(win);
        spans.add("rma.fence", rank, op, t0, cluster.now());
      };
      const auto put = [&](std::uint64_t op, unsigned to, std::size_t slot) {
        const SimTime t0 = cluster.now();
        const pm2::Status st = rma.put(win, to, slot * kHalo, halo);
        spans.add("rma.put", rank, op, t0, cluster.now());
        return pm2::ok(st);
      };
      for (unsigned it = 0; it < kIters; ++it) {
        const std::uint64_t op = std::uint64_t{rank} * kIters + it;
        const SimTime t0 = cluster.now();
        const SimDuration want = compute[op];
        pm2::marcel::this_thread::compute(want);
        compute_wait += (cluster.now() - t0) - want;
        spans.add("marcel.compute", rank, op, t0, cluster.now());

        std::fill(halo.begin(), halo.end(), fill(rank, it));
        fence(op);
        bool ok = put(op, right, 0);  // their from-left slot
        ok = put(op, left, 1) && ok;  // their from-right slot
        fence(op);
        const std::span<const std::byte> mine(wins[rank]);
        ok = ok && all_equal(mine.first(kHalo), fill(left, it)) &&
             all_equal(mine.subspan(kHalo), fill(right, it));

        std::fill(sum.begin(), sum.end(), 1.0);
        const SimTime a0 = cluster.now();
        coll.wait(coll.iallreduce_sum(sum));
        spans.add("coll.allreduce", rank, op, a0, cluster.now());
        for (const double v : sum) ok = ok && v == static_cast<double>(kNodes);

        const SimTime t_end = cluster.now();
        spans.add("op", rank, op, t0, t_end);
        if (ok) lat[op] = t_end - t0;
        last_end = std::max(last_end, t_end);
      }
    });
  }
  timed_run(cluster, r);
  r.vt_span = last_end - t_start;

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
  r.traced_only["coll.allreduce_us"] = spans.mean_us("coll.allreduce");
  r.traced_only["rma.put_us"] = spans.mean_us("rma.put");
  r.traced_only["rma.fence_us"] = spans.mean_us("rma.fence");
  return r;
}

}  // namespace perfbench
