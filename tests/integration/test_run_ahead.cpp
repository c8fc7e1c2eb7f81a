// Differential oracle for run-ahead (docs/simulation-model.md, "Event order
// and run-ahead").  A compute chunk that nothing can reach before it ends
// runs inline, with no event and no fiber switch.  Attaching a schedule
// fuzzer whose options are all zero perturbs nothing, but makes every
// chunk step through the event queue; so does lockdep, which leaves the
// other engine-context shortcuts of app-driven waits (parked polls, lock
// granules) in place.  Each scenario runs with run-ahead and stepped,
// and must reproduce every completion time, and every metric except the
// counters of the path taken.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pm2/cluster.hpp"
#include "marcel/lockdep.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2 {
namespace {

struct Outcome {
  std::vector<SimTime> done;  // per-operation completion times
  std::string metrics;        // every metric but the path counters
  std::uint64_t inlined = 0;
  std::uint64_t chunks = 0;
};

bool path_counter(std::string_view name) {
  return name.starts_with("sim/events/") ||
         name.ends_with("/spin_granules") || name.ends_with("/engine_polls") ||
         name.ends_with("/compute_chunks") ||
         name.ends_with("/chunks_inlined");
}

std::string path_free_metrics(Cluster& cluster) {
  cluster.flush_observability();
  std::string out;
  cluster.metrics().visit([&](const MetricsRegistry::View& v) {
    if (path_counter(v.name)) return;
    out += v.name;
    out += '=';
    out += v.hist != nullptr ? v.hist->render() : std::to_string(v.number);
    out += '\n';
  });
  return out;
}

using Workload =
    std::function<void(Cluster& cluster, std::vector<SimTime>& done)>;

enum class Path : std::uint8_t { kAhead, kFuzzed, kLockdep };

Outcome run(const ClusterConfig& cfg, const Workload& workload, Path path) {
  sim::ScheduleFuzzer::Options zero;
  zero.chunk_cut_pct = 0;
  zero.tick_jitter_pct = 0;
  zero.delay_jitter_pct = 0;
  zero.event_jitter_pct = 0;
  zero.idle_churn_pct = 0;
  zero.interleave_pct = 0;
  sim::ScheduleFuzzer fuzzer(1, zero);
  Outcome out;
  {
    std::optional<lockdep::Session> lockdep;
    if (path == Path::kLockdep) lockdep.emplace();
    Cluster cluster(cfg);
    if (path == Path::kFuzzed) cluster.runtime().attach_fuzzer(&fuzzer);
    workload(cluster, out.done);
    cluster.run();
    out.metrics = path_free_metrics(cluster);
    out.inlined = cluster.metrics().sum("node", "/chunks_inlined");
    out.chunks = cluster.metrics().sum("node", "/compute_chunks");
    cluster.runtime().attach_fuzzer(nullptr);
  }
  EXPECT_EQ(fuzzer.decision_count(), 0u) << "the zeroed fuzzer perturbed";
  return out;
}

/// Runs `workload` with run-ahead and stepped by `reference`; returns the
/// run-ahead outcome.  Under the fuzzer, app-driven waits also step each
/// empty poll, so only their completion times are compared.
Outcome expect_identical(const ClusterConfig& cfg, const Workload& workload,
                         Path reference) {
  const Outcome ahead = run(cfg, workload, Path::kAhead);
  const Outcome fuzzed = run(cfg, workload, Path::kFuzzed);
  EXPECT_FALSE(ahead.done.empty());
  EXPECT_EQ(ahead.done, fuzzed.done);
  EXPECT_EQ(fuzzed.inlined, 0u);
  const Outcome stepped =
      reference == Path::kFuzzed ? fuzzed : run(cfg, workload, reference);
  EXPECT_EQ(ahead.done, stepped.done);
  EXPECT_EQ(ahead.metrics, stepped.metrics);
  EXPECT_EQ(stepped.inlined, 0u);
  EXPECT_LE(ahead.inlined, ahead.chunks);
  return ahead;
}

TEST(RunAhead, AppDrivenRmaHaloAndAllreduceMatchStepped) {
  // 16 x 4, app-driven: compute, fence, a 1 KiB put to each ring
  // neighbour, fence, 128-double allreduce, as perfbench's halo_solver.
  constexpr unsigned kNodes = 16;
  constexpr unsigned kIters = 4;
  constexpr std::size_t kHalo = 1024;
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = false;
  cfg.rma = true;
  auto wins = std::make_shared<std::vector<std::vector<std::byte>>>(
      kNodes, std::vector<std::byte>(2 * kHalo));
  const Workload workload = [wins](Cluster& cluster, std::vector<SimTime>& done) {
    done.assign(std::size_t{kNodes} * kIters, 0);
    for (unsigned rank = 0; rank < kNodes; ++rank) {
      cluster.run_on(rank, [&cluster, &done, wins, rank] {
        nm::rma::Engine& rma = cluster.rma(rank);
        nm::coll::Engine& coll = cluster.coll(rank);
        const nm::rma::WinId win = rma.win_create((*wins)[rank]);
        const unsigned left = (rank + kNodes - 1) % kNodes;
        const unsigned right = (rank + 1) % kNodes;
        std::vector<std::byte> halo(kHalo, std::byte{1});
        std::vector<double> sum(128);
        for (unsigned it = 0; it < kIters; ++it) {
          marcel::this_thread::compute((20 + (rank * 7 + it) % 5) * kUs);
          rma.fence(win);
          EXPECT_TRUE(ok(rma.put(win, right, 0, halo)));
          EXPECT_TRUE(ok(rma.put(win, left, kHalo, halo)));
          rma.fence(win);
          std::fill(sum.begin(), sum.end(), 1.0);
          coll.wait(coll.iallreduce_sum(sum));
          EXPECT_EQ(sum[0], static_cast<double>(kNodes));
          done[std::size_t{rank} * kIters + it] = cluster.now();
        }
      });
    }
  };
  const Outcome ahead = expect_identical(cfg, workload, Path::kLockdep);
  EXPECT_GT(ahead.inlined, 0u);
}

TEST(RunAhead, AppDrivenRdmaPutsMatchStepped) {
  // Rendezvous sends move by RDMA; the sender learns of each landing in an
  // event of its own (Nic::rdma_put's on_delivered).
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cpus_per_node = 2;
  cfg.pioman = false;
  const Workload puts = [](Cluster& cluster, std::vector<SimTime>& done) {
    constexpr unsigned kMsgs = 6;
    const unsigned n = cluster.nodes();
    done.assign(std::size_t{n} * kMsgs, 0);
    for (unsigned node = 0; node < n; ++node) {
      cluster.run_on(node, [&cluster, &done, node, n] {
        nm::Core& nm = cluster.comm(node);
        std::vector<std::byte> tx(96 * 1024, std::byte{3});
        std::vector<std::byte> rx(96 * 1024);
        for (unsigned k = 0; k < kMsgs; ++k) {
          nm::Request* r = nm.irecv((node + n - 1) % n, 7, rx);
          nm::Request* s = nm.isend((node + 1) % n, 7, tx);
          marcel::this_thread::compute((5 + (node + 3 * k) % 7) * kUs);
          nm.wait(s);
          nm.wait(r);
          done[std::size_t{node} * kMsgs + k] = cluster.now();
        }
      });
    }
  };
  const Outcome ahead = expect_identical(cfg, puts, Path::kLockdep);
  EXPECT_GT(ahead.inlined, 0u);
}

TEST(RunAhead, PiomanP2pMatchesStepped) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;
  const Workload p2p = [](Cluster& cluster, std::vector<SimTime>& done) {
    constexpr unsigned kOps = 8;
    done.assign(2 * kOps, 0);
    cluster.run_on(0, [&cluster, &done] {
      nm::Core& nm = cluster.comm(0);
      std::vector<std::byte> tx(48 * 1024, std::byte{9});
      for (unsigned k = 0; k < kOps; ++k) {
        nm::Request* s =
            nm.isend(1, 1, std::span(tx).first(k % 2 == 0 ? 512 : tx.size()));
        marcel::this_thread::compute((10 + 3 * k) * kUs);
        nm.wait(s);
        done[k] = cluster.now();
      }
    });
    cluster.run_on(1, [&cluster, &done] {
      nm::Core& nm = cluster.comm(1);
      std::vector<std::byte> rx(48 * 1024);
      for (unsigned k = 0; k < kOps; ++k) {
        nm::Request* r = nm.irecv(0, 1, rx);
        marcel::this_thread::compute((4 + 5 * k) * kUs);
        nm.wait(r);
        done[kOps + k] = cluster.now();
      }
    });
  };
  expect_identical(cfg, p2p, Path::kFuzzed);
}

}  // namespace
}  // namespace pm2
