// Differential oracle for engine-context PIOMan poll rounds
// (docs/concurrency.md §8).  Attaching a schedule fuzzer whose options are
// all zero perturbs nothing (ScheduleFuzz.ZeroedOptionsAreIdentity), but
// every engine-context shortcut — poll rounds, lock-spin granules and
// compute chunks run ahead — then steps through its fiber.  Each PIOMan
// scenario runs both ways and must reproduce every completion time and
// every metric, except the counters of the path taken (sim/events/*,
// spin_granules, engine_polls, compute_chunks, chunks_inlined,
// chunks_parked).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pm2/cluster.hpp"
#include "pm2/completion.hpp"
#include "pm2/rpc.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2 {
namespace {

struct Outcome {
  std::vector<SimTime> done;  // per-operation completion times
  std::string metrics;        // every metric but the path counters
  std::uint64_t engine_polls = 0;
  std::uint64_t interrupts = 0;  // LWP wake-ups across the nodes
};

bool path_counter(std::string_view name) {
  return name.starts_with("sim/events/") ||
         name.ends_with("/spin_granules") || name.ends_with("/engine_polls") ||
         name.ends_with("/compute_chunks") ||
         name.ends_with("/chunks_inlined") || name.ends_with("/chunks_parked");
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

/// Sets up a workload on `cluster` that appends completion times to
/// `done` (in a deterministic order).
using Workload =
    std::function<void(Cluster& cluster, std::vector<SimTime>& done)>;

Outcome run(const ClusterConfig& cfg, const Workload& workload,
            bool stepped) {
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
    Cluster cluster(cfg);
    if (stepped) cluster.runtime().attach_fuzzer(&fuzzer);
    workload(cluster, out.done);
    cluster.run();
    out.metrics = path_free_metrics(cluster);
    out.engine_polls = cluster.metrics().sum("node", "/engine_polls");
    out.interrupts = cluster.metrics().sum("node", "/piom/interrupts");
    cluster.runtime().attach_fuzzer(nullptr);
  }
  EXPECT_EQ(fuzzer.decision_count(), 0u) << "the zeroed fuzzer perturbed";
  return out;
}

/// Runs `workload` both ways and returns the engine-context outcome.
Outcome expect_identical(const ClusterConfig& cfg, const Workload& workload) {
  Outcome engine = run(cfg, workload, /*stepped=*/false);
  const Outcome stepped = run(cfg, workload, /*stepped=*/true);
  EXPECT_FALSE(engine.done.empty());
  EXPECT_EQ(engine.done, stepped.done);
  EXPECT_EQ(engine.metrics, stepped.metrics);
  EXPECT_GT(engine.engine_polls, 0u) << "no round ran in engine context";
  EXPECT_EQ(stepped.engine_polls, 0u);
  return engine;
}

/// Eager and rendezvous sizes in a fixed mix around the 32 KiB threshold.
std::size_t mix_size(unsigned k) {
  static constexpr std::size_t kSizes[] = {8,         1024,  16 * 1024,
                                           48 * 1024, 256,   64 * 1024,
                                           4 * 1024,  40 * 1024};
  return kSizes[k % std::size(kSizes)];
}

/// `pairs` sender/receiver thread pairs between nodes 0 and 1: isend (or
/// irecv), compute, wait; the receiver acks each message.
Workload p2p(unsigned pairs, unsigned ops, nm::Tag tag_stride = 2) {
  return [=](Cluster& cluster, std::vector<SimTime>& done) {
    done.assign(std::size_t{pairs} * ops * 2, 0);
    for (unsigned p = 0; p < pairs; ++p) {
      const int cpu = static_cast<int>(p % cluster.config().cpus_per_node);
      const nm::Tag data_tag = tag_stride * p;
      const nm::Tag ack_tag = tag_stride * p + 1;
      cluster.run_on(
          0,
          [&cluster, &done, p, ops, data_tag, ack_tag] {
            nm::Core& nm = cluster.comm(0);
            std::vector<std::byte> tx(64 * 1024, std::byte{7});
            std::uint64_t ack = 0;
            for (unsigned k = 0; k < ops; ++k) {
              nm::Request* ar = nm.irecv(
                  1, ack_tag, std::as_writable_bytes(std::span(&ack, 1)));
              nm::Request* s =
                  nm.isend(1, data_tag, std::span(tx).first(mix_size(k + p)));
              marcel::this_thread::compute((3 + (k * 7 + p) % 17) * kUs);
              nm.wait(s);
              nm.wait(ar);
              done[(std::size_t{p} * ops + k) * 2] = cluster.now();
            }
          },
          "sender", cpu);
      cluster.run_on(
          1,
          [&cluster, &done, p, ops, data_tag, ack_tag] {
            nm::Core& nm = cluster.comm(1);
            std::vector<std::byte> rx(64 * 1024);
            std::uint64_t ack = 0;
            for (unsigned k = 0; k < ops; ++k) {
              nm::Request* r = nm.irecv(
                  0, data_tag, std::span(rx).first(mix_size(k + p)));
              marcel::this_thread::compute((5 + (k * 3 + p) % 11) * kUs);
              nm.wait(r);
              done[(std::size_t{p} * ops + k) * 2 + 1] = cluster.now();
              ack = k;
              nm::Request* s =
                  nm.isend(0, ack_tag, std::as_bytes(std::span(&ack, 1)));
              nm.wait(s);
            }
          },
          "receiver", cpu);
    }
  };
}

class EnginePollsP2p : public ::testing::TestWithParam<unsigned> {};

TEST_P(EnginePollsP2p, MixedEagerRendezvousMatchesStepped) {
  ClusterConfig cfg;
  cfg.cpus_per_node = GetParam();
  // Four threads per node on three cores: waiters find ready threads on
  // their core and block passively.
  const Outcome engine =
      expect_identical(cfg, p2p(GetParam() == 3 ? 4 : 3, 24));
  if (GetParam() == 3) {
    // No core idles, so rendezvous handshakes fall back to the blocking
    // LWP, whose poll pass then runs under the oracle too.
    EXPECT_GT(engine.interrupts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, EnginePollsP2p, ::testing::Values(3, 4, 8),
                         [](const auto& tp) {
                           return "c" + std::to_string(tp.param);
                         });

TEST(EnginePolls, TestSpinAndTimedWaitsMatchStepped) {
  // Senders spin on test() (one progress_once() pass per call); receivers
  // wait_for() in a retry loop, alternating a 1 us timeout, which expires
  // while the sender computes, with a 1 ms one.  Three pairs on two cores
  // per node, so timed waits also block passively behind a ready thread.
  ClusterConfig cfg;
  cfg.cpus_per_node = 2;
  constexpr unsigned kPairs = 3;
  constexpr unsigned kOps = 16;
  const Outcome engine = expect_identical(
      cfg, [](Cluster& cluster, std::vector<SimTime>& done) {
        // Per op: send completion, receive completion, expired wait_fors.
        done.assign(std::size_t{kPairs} * kOps * 3, 0);
        for (unsigned p = 0; p < kPairs; ++p) {
          const int cpu = static_cast<int>(p % 2);
          cluster.run_on(
              0,
              [&cluster, &done, p] {
                nm::Core& nm = cluster.comm(0);
                std::vector<std::byte> tx(64 * 1024, std::byte{7});
                for (unsigned k = 0; k < kOps; ++k) {
                  marcel::this_thread::compute((2 + (k * 7 + p) % 9) * kUs);
                  nm::Request* s = nm.isend(1, p, std::span(tx).first(
                                                      mix_size(k + p)));
                  while (!nm.test(s)) {
                  }
                  done[(std::size_t{p} * kOps + k) * 3] = cluster.now();
                }
              },
              "sender", cpu);
          cluster.run_on(
              1,
              [&cluster, &done, p] {
                nm::Core& nm = cluster.comm(1);
                std::vector<std::byte> rx(64 * 1024);
                for (unsigned k = 0; k < kOps; ++k) {
                  nm::Request* r =
                      nm.irecv(0, p, std::span(rx).first(mix_size(k + p)));
                  const SimDuration timeout = k % 2 == 0 ? kUs : kMs;
                  SimTime& expired = done[(std::size_t{p} * kOps + k) * 3 + 2];
                  while (nm.wait_for(r, timeout) == Status::kTimedOut) {
                    ++expired;
                  }
                  done[(std::size_t{p} * kOps + k) * 3 + 1] = cluster.now();
                }
              },
              "receiver", cpu);
        }
      });
  SimTime expired = 0;
  for (std::size_t i = 2; i < engine.done.size(); i += 3) {
    expired += engine.done[i];
  }
  EXPECT_GT(expired, 0u) << "no wait_for timed out";
}

TEST(EnginePolls, ShardedMatchingMatchesStepped) {
  ClusterConfig cfg;
  cfg.cpus_per_node = 4;
  cfg.nm.match_shards = 4;
  // One tag band apart, so the pairs' flows land on distinct shards.
  expect_identical(cfg, p2p(3, 16, nm::Tag{1} << cfg.nm.tag_band_shift));
}

TEST(EnginePolls, RpcServiceMatchesStepped) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.cpus_per_node = 4;
  cfg.rpc = true;
  constexpr std::uint32_t kService = 7;
  constexpr unsigned kCalls = 20;
  expect_identical(cfg, [](Cluster& cluster, std::vector<SimTime>& done) {
    cluster.rpc(0).register_service(kService, [](rpc::Context& ctx) {
      const auto work = static_cast<SimDuration>(ctx.args().u64());
      const rpc::CompletionRef ref = ctx.args().completion();
      marcel::this_thread::compute(work);
      ctx.engine().signal(ref);
    });
    done.assign(2 * kCalls, 0);
    for (unsigned c = 1; c <= 2; ++c) {
      cluster.run_on(c, [&cluster, &done, c] {
        rpc::Engine& eng = cluster.rpc(c);
        std::vector<std::unique_ptr<rpc::Completion>> comps;
        for (unsigned k = 0; k < kCalls; ++k) {
          marcel::this_thread::compute((2 + (k * 5 + c) % 9) * kUs);
          comps.push_back(std::make_unique<rpc::Completion>(eng));
          rpc::Completion& comp = *comps.back();
          eng.call(0, kService, [&](rpc::ArgWriter& aw) {
            aw.u64((1 + (k * 3 + c) % 7) * kUs);
            aw.completion(comp.ref());
          });
          if (k % 4 == 3) comp.wait();
        }
        for (unsigned k = 0; k < kCalls; ++k) {
          comps[k]->wait();
          done[(c - 1) * kCalls + k] = comps[k]->done_at();
        }
      });
    }
  });
}

TEST(EnginePolls, CollectivesMatchStepped) {
  // The coll source registers at each launch and unregisters when the
  // last collective in flight completes, from whichever poll finished it.
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cpus_per_node = 4;
  constexpr unsigned kRounds = 12;
  expect_identical(cfg, [](Cluster& cluster, std::vector<SimTime>& done) {
    done.assign(std::size_t{4} * kRounds, 0);
    for (unsigned n = 0; n < 4; ++n) {
      cluster.run_on(n, [&cluster, &done, n] {
        nm::coll::Engine& coll = cluster.coll(n);
        std::vector<double> v(16, 1.0 + n);
        for (unsigned r = 0; r < kRounds; ++r) {
          nm::coll::CollRequest* cr = r % 3 == 2 ? coll.ibarrier()
                                                 : coll.iallreduce_sum(v);
          marcel::this_thread::compute((4 + (r * 5 + n) % 13) * kUs);
          coll.wait(cr);
          done[std::size_t{n} * kRounds + r] = cluster.now();
        }
      });
    }
  });
}

}  // namespace
}  // namespace pm2
