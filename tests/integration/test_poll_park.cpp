// Differential oracle for parked PIOMan poll chains and lock-spin granule
// chains (sim::Engine::park()).  A schedule fuzzer whose options are all
// zero perturbs nothing but forces every chain to step through the heap
// and its fiber; each scenario runs both ways and must reproduce every
// completion time and every metric except the path counters.
//
// The targeted scenarios sweep one offset a nanosecond at a time across a
// whole poll round (150 ns burn per source plus the 300 ns gap), so the
// event they aim at lands on every point of the waiter's round, burn and
// gap boundaries included, with the parked keys' same-instant ties broken
// both ways.  The soak runs PM2_PARK_SOAK_SEEDS seeds (default 200) of
// random sizes and compute on 2 x {3, 4, 8} cores.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "pm2/cluster.hpp"
#include "sim/rng.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2 {
namespace {

struct Outcome {
  std::vector<SimTime> done;  // per-operation completion times
  std::string metrics;        // every metric but the path counters
  std::uint64_t parked = 0;           // Σ chunks_parked
  std::uint64_t granules_parked = 0;  // of which granule ends
  std::uint64_t contended = 0;        // contended engine-lock acquires
};

// The path counters, and the host thread's fiber-stack gauges (sim/
// fiber_stacks/*), which a mid-run read sees carry over from the previous
// run in the process.
bool path_counter(std::string_view name) {
  return name.starts_with("sim/") ||
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
/// Runs the cluster to the end; what it observes on the way goes into
/// `seen`.  The default is Cluster::run().
using Driver = std::function<void(Cluster& cluster, std::string& seen)>;

Outcome run(const ClusterConfig& cfg, const Workload& workload,
            const Driver& driver, bool stepped) {
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
    if (driver) {
      driver(cluster, out.metrics);
    } else {
      cluster.run();
    }
    out.metrics += path_free_metrics(cluster);
    out.parked = cluster.metrics().sum("node", "/chunks_parked");
    out.granules_parked = static_cast<std::uint64_t>(
        cluster.metrics().value("sim/events/parked/granule"));
    out.contended = cluster.metrics().sum("node", "/locks/engine/contended");
    cluster.runtime().attach_fuzzer(nullptr);
  }
  EXPECT_EQ(fuzzer.decision_count(), 0u) << "the zeroed fuzzer perturbed";
  return out;
}

/// Runs `workload` parked and stepped; returns the parked outcome.
Outcome expect_identical(const ClusterConfig& cfg, const Workload& workload,
                         const Driver& driver = nullptr) {
  Outcome fast = run(cfg, workload, driver, /*stepped=*/false);
  const Outcome ref = run(cfg, workload, driver, /*stepped=*/true);
  EXPECT_FALSE(fast.done.empty());
  EXPECT_EQ(fast.done, ref.done);
  EXPECT_EQ(fast.metrics, ref.metrics);
  EXPECT_EQ(ref.parked, 0u) << "the stepped run parked";
  return fast;
}

/// Sweeps `offset` over [0, kRound) and sums the parked outcomes; stops at
/// the first mismatch.
constexpr SimDuration kRound = 600;  // two sources' burns plus the gap
Outcome sweep(const ClusterConfig& cfg,
              const std::function<Workload(SimDuration offset)>& make,
              SimDuration step = 1) {
  Outcome sum;
  for (SimDuration off = 0; off < kRound; off += step) {
    SCOPED_TRACE("offset " + std::to_string(off) + " ns");
    const Outcome o = expect_identical(cfg, make(off));
    sum.parked += o.parked;
    sum.granules_parked += o.granules_parked;
    sum.contended += o.contended;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(sum.parked, 0u) << "no chain was parked";
  return sum;
}

ClusterConfig pioman(unsigned nodes, unsigned cores) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = cores;
  cfg.pioman = true;
  return cfg;
}

// A waiter on node 0 parks its poll chain; a sibling core sends it a
// message through node 0's own NIC (intra_latency 200 ns, less than a
// poll round), `off` ns later, so the arrival lands on every burn and gap
// boundary of the waiter's round.
TEST(ParkedVsStepped, IntraNodeArrivalOnBurnAndGapBoundaries) {
  sweep(pioman(2, 2), [](SimDuration off) -> Workload {
    return [off](Cluster& cluster, std::vector<SimTime>& done) {
      done.assign(2, 0);
      cluster.run_on(
          0,
          [&cluster, &done] {
            nm::Core& nm = cluster.comm(0);
            std::uint64_t word = 0;
            nm.wait(nm.irecv(0, 1, std::as_writable_bytes(std::span(&word, 1))));
            done[0] = cluster.now();
          },
          "waiter", 0);
      cluster.run_on(
          0,
          [&cluster, &done, off] {
            nm::Core& nm = cluster.comm(0);
            const std::uint64_t word = 42;
            marcel::this_thread::compute(2 * kUs + off);
            nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
            done[1] = cluster.now();
          },
          "sibling", 1);
    };
  });
}

// A sibling core takes and drops the engine lock (an nm send to node 1)
// `off` ns into the waiter's parked stretch: its release lands on the
// waiter's burned boundaries, where the waiter's poll takes the same lock.
// The sibling starts either with the waiter (its keys drawn at the same
// instants as the waiter's) or half a burn later, so the tie is broken
// from both sides.
TEST(ParkedVsStepped, EngineLockReleaseOnABurnedBoundary) {
  for (const SimDuration lead : {SimDuration{0}, SimDuration{75}}) {
    SCOPED_TRACE("lead " + std::to_string(lead) + " ns");
    sweep(pioman(2, 2), [lead](SimDuration off) -> Workload {
      return [lead, off](Cluster& cluster, std::vector<SimTime>& done) {
        done.assign(3, 0);
        cluster.run_on(
            0,
            [&cluster, &done] {
              nm::Core& nm = cluster.comm(0);
              std::uint64_t word = 0;
              nm.wait(
                  nm.irecv(1, 1, std::as_writable_bytes(std::span(&word, 1))));
              done[0] = cluster.now();
            },
            "waiter", 0);
        cluster.run_on(
            0,
            [&cluster, &done, lead, off] {
              nm::Core& nm = cluster.comm(0);
              const std::uint64_t word = 7;
              marcel::this_thread::compute(lead);
              marcel::this_thread::compute(kUs + off);
              nm.wait(nm.isend(1, 2, std::as_bytes(std::span(&word, 1))));
              done[1] = cluster.now();
            },
            "sibling", 1);
        cluster.run_on(1, [&cluster, &done] {
          nm::Core& nm = cluster.comm(1);
          std::uint64_t word = 0;
          nm.wait(nm.irecv(0, 2, std::as_writable_bytes(std::span(&word, 1))));
          nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
          done[2] = cluster.now();
        });
      };
    });
  }
}

// A sibling's compute chunk ends `off` ns into the waiter's parked
// stretch, and the sibling then posts a receive (taking the engine lock):
// its chunk end ties with the waiter's boundaries at every offset.
TEST(ParkedVsStepped, SiblingComputeChunkEndsOnABoundary) {
  sweep(pioman(2, 2), [](SimDuration off) -> Workload {
    return [off](Cluster& cluster, std::vector<SimTime>& done) {
      done.assign(3, 0);
      cluster.run_on(
          0,
          [&cluster, &done] {
            nm::Core& nm = cluster.comm(0);
            std::uint64_t word = 0;
            nm.wait(nm.irecv(1, 1, std::as_writable_bytes(std::span(&word, 1))));
            done[0] = cluster.now();
          },
          "waiter", 0);
      cluster.run_on(
          0,
          [&cluster, &done, off] {
            nm::Core& nm = cluster.comm(0);
            std::uint64_t word = 0;
            marcel::this_thread::compute(kUs + off);
            nm.wait(nm.irecv(1, 2, std::as_writable_bytes(std::span(&word, 1))));
            done[1] = cluster.now();
          },
          "sibling", 1);
      cluster.run_on(1, [&cluster, &done] {
        nm::Core& nm = cluster.comm(1);
        const std::uint64_t word = 5;
        marcel::this_thread::compute(3 * kUs);
        nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
        nm.wait(nm.isend(0, 2, std::as_bytes(std::span(&word, 1))));
        done[2] = cluster.now();
      });
    };
  });
}

// Two waiters start together on two cores of node 0, so their parked
// chains draw keys at the same instants and tie on every boundary; the
// messages that end them arrive `off` ns apart.
TEST(ParkedVsStepped, TwoSamePhasePollers) {
  sweep(
      pioman(2, 3),
      [](SimDuration off) -> Workload {
        return [off](Cluster& cluster, std::vector<SimTime>& done) {
          done.assign(2, 0);
          for (unsigned w = 0; w < 2; ++w) {
            cluster.run_on(
                0,
                [&cluster, &done, w] {
                  nm::Core& nm = cluster.comm(0);
                  std::uint64_t word = 0;
                  nm.wait(nm.irecv(
                      1, w, std::as_writable_bytes(std::span(&word, 1))));
                  done[w] = cluster.now();
                },
                "waiter", static_cast<int>(w));
          }
          cluster.run_on(1, [&cluster, off] {
            nm::Core& nm = cluster.comm(1);
            const std::uint64_t word = 9;
            marcel::this_thread::compute(2 * kUs);
            nm::Request* a = nm.isend(0, 0, std::as_bytes(std::span(&word, 1)));
            marcel::this_thread::compute(off);
            nm::Request* b = nm.isend(0, 1, std::as_bytes(std::span(&word, 1)));
            nm.wait(a);
            nm.wait(b);
          });
        };
      },
      /*step=*/3);
}

// One waiter's untimed wait parks its chain while a second waiter, on
// another core of the node, retries wait_for() with a timeout of `off` ns
// plus a round, so each deadline falls at a different point of the
// parked stretch; the messages come after several deadlines.
TEST(ParkedVsStepped, WaitForDeadlineInsideAParkedStretch) {
  sweep(
      pioman(2, 3),
      [](SimDuration off) -> Workload {
        return [off](Cluster& cluster, std::vector<SimTime>& done) {
          done.assign(3, 0);
          cluster.run_on(
              0,
              [&cluster, &done] {
                nm::Core& nm = cluster.comm(0);
                std::uint64_t word = 0;
                nm.wait(nm.irecv(
                    1, 0, std::as_writable_bytes(std::span(&word, 1))));
                done[0] = cluster.now();
              },
              "waiter", 0);
          cluster.run_on(
              0,
              [&cluster, &done, off] {
                nm::Core& nm = cluster.comm(0);
                std::uint64_t word = 0;
                nm::Request* r =
                    nm.irecv(1, 1, std::as_writable_bytes(std::span(&word, 1)));
                while (nm.wait_for(r, kRound + off) == Status::kTimedOut) {
                  ++done[2];
                }
                done[1] = cluster.now();
              },
              "timed", 1);
          cluster.run_on(1, [&cluster] {
            nm::Core& nm = cluster.comm(1);
            const std::uint64_t word = 3;
            marcel::this_thread::compute(6 * kUs);
            nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
            marcel::this_thread::compute(kUs);
            nm.wait(nm.isend(0, 0, std::as_bytes(std::span(&word, 1))));
          });
        };
      },
      /*step=*/5);
}

// The coll source is registered when a collective starts and removed when
// the last one in flight completes; here that happens on node 0 while
// another core's poll chain there is parked.
TEST(ParkedVsStepped, CollSourceAddedAndRemovedWhileParked) {
  sweep(
      pioman(4, 2),
      [](SimDuration off) -> Workload {
        return [off](Cluster& cluster, std::vector<SimTime>& done) {
          constexpr unsigned kRounds = 3;
          done.assign(4 * kRounds + 1, 0);
          cluster.run_on(
              0,
              [&cluster, &done] {
                nm::Core& nm = cluster.comm(0);
                std::uint64_t word = 0;
                nm.wait(nm.irecv(
                    1, 1, std::as_writable_bytes(std::span(&word, 1))));
                done[4 * kRounds] = cluster.now();
              },
              "waiter", 0);
          for (unsigned n = 0; n < 4; ++n) {
            cluster.run_on(
                n,
                [&cluster, &done, n, off] {
                  nm::coll::Engine& coll = cluster.coll(n);
                  std::vector<double> v(4, 1.0 + n);
                  marcel::this_thread::compute(kUs + (n == 0 ? off : 0));
                  for (unsigned r = 0; r < kRounds; ++r) {
                    coll.wait(r % 2 == 0 ? coll.iallreduce_sum(v)
                                         : coll.ibarrier());
                    done[std::size_t{n} * kRounds + r] = cluster.now();
                    marcel::this_thread::compute(2 * kUs);
                  }
                },
                "coll", 1);
          }
          cluster.run_on(1, [&cluster] {
            nm::Core& nm = cluster.comm(1);
            const std::uint64_t word = 1;
            marcel::this_thread::compute(30 * kUs);
            nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
          });
        };
      },
      /*step=*/25);
}

// run_until() stops inside parked stretches; the metrics read there (the
// core-state buckets included) and after the rest of the run must match
// the stepped run's.
TEST(ParkedVsStepped, RunUntilMidStretchThenMetrics) {
  const Workload workload = [](Cluster& cluster, std::vector<SimTime>& done) {
    done.assign(2, 0);
    cluster.run_on(
        0,
        [&cluster, &done] {
          nm::Core& nm = cluster.comm(0);
          std::uint64_t word = 0;
          nm.wait(nm.irecv(1, 1, std::as_writable_bytes(std::span(&word, 1))));
          done[0] = cluster.now();
        },
        "waiter", 0);
    cluster.run_on(1, [&cluster, &done] {
      nm::Core& nm = cluster.comm(1);
      const std::uint64_t word = 2;
      marcel::this_thread::compute(5 * kUs);
      nm.wait(nm.isend(0, 1, std::as_bytes(std::span(&word, 1))));
      done[1] = cluster.now();
    });
  };
  std::uint64_t parked = 0;
  for (SimTime stop = 1 * kUs; stop < 1 * kUs + kRound; stop += 7) {
    SCOPED_TRACE("stop at " + std::to_string(stop) + " ns");
    const Outcome o = expect_identical(
        pioman(2, 2), workload, [stop](Cluster& cluster, std::string& seen) {
          (void)cluster.engine().run_until(stop);
          seen += "now=" + std::to_string(cluster.now()) + '\n';
          seen += path_free_metrics(cluster);
          cluster.run();
        });
    parked += o.parked;
    if (HasFailure()) break;
  }
  EXPECT_GT(parked, 0u);
}

// Three threads on one node send in bursts, so the engine lock is often
// held while another core wants it: those spinners' granule chains park
// while the holder keeps the lock, and the release ends them.
TEST(ParkedVsStepped, ContendedLockGranuleChainParked) {
  const Outcome sum = sweep(
      pioman(2, 4),
      [](SimDuration off) -> Workload {
        return [off](Cluster& cluster, std::vector<SimTime>& done) {
          constexpr unsigned kSenders = 3;
          constexpr unsigned kOps = 4;
          done.assign(kSenders * kOps, 0);
          for (unsigned s = 0; s < kSenders; ++s) {
            cluster.run_on(
                0,
                [&cluster, &done, s, off] {
                  nm::Core& nm = cluster.comm(0);
                  std::vector<std::byte> tx(16 * 1024, std::byte{1});
                  marcel::this_thread::compute(s * off / kSenders);
                  for (unsigned k = 0; k < kOps; ++k) {
                    nm.wait(nm.isend(1, s, std::span(tx).first(256 << k)));
                    done[std::size_t{s} * kOps + k] = cluster.now();
                  }
                },
                "sender", static_cast<int>(s));
            cluster.run_on(
                1,
                [&cluster, s] {
                  nm::Core& nm = cluster.comm(1);
                  std::vector<std::byte> rx(16 * 1024);
                  for (unsigned k = 0; k < kOps; ++k) {
                    nm.wait(nm.irecv(0, s, std::span(rx).first(256 << k)));
                  }
                },
                "receiver", static_cast<int>(s));
          }
        };
      },
      /*step=*/10);
  EXPECT_GT(sum.contended, 0u);
  EXPECT_GT(sum.granules_parked, 0u) << "no granule chain was parked";
}

/// `pairs` sender/receiver pairs between nodes 0 and 1 with seeded sizes
/// (8 B .. 64 KiB, eager and rendezvous) and compute times.
constexpr unsigned kOps = 6;  // per pair and direction
Workload seeded(unsigned cores, std::uint64_t seed) {
  sim::Rng rng(seed);
  const unsigned pairs = 1 + static_cast<unsigned>(rng.next_below(cores));
  std::vector<std::size_t> sizes;
  std::vector<SimDuration> compute;
  for (unsigned i = 0; i < 2 * pairs * kOps; ++i) {
    sizes.push_back(std::size_t{8} << rng.next_below(14));
    compute.push_back(rng.next_below(8) * kUs + rng.next_below(1000));
  }
  return [=](Cluster& cluster, std::vector<SimTime>& done) {
    done.assign(std::size_t{pairs} * kOps * 2, 0);
    for (unsigned p = 0; p < pairs; ++p) {
      const nm::Tag data = 2 * p;
      const nm::Tag ack = 2 * p + 1;
      const int cpu = static_cast<int>(p % cores);
      cluster.run_on(
          0,
          [&cluster, &done, sizes, compute, p, data, ack] {
            nm::Core& nm = cluster.comm(0);
            std::vector<std::byte> tx(64 * 1024, std::byte{3});
            std::uint64_t word = 0;
            for (unsigned k = 0; k < kOps; ++k) {
              const std::size_t i = std::size_t{p} * kOps + k;
              nm::Request* ar = nm.irecv(
                  1, ack, std::as_writable_bytes(std::span(&word, 1)));
              nm::Request* s = nm.isend(1, data, std::span(tx).first(sizes[i]));
              marcel::this_thread::compute(compute[2 * i]);
              nm.wait(s);
              nm.wait(ar);
              done[2 * i] = cluster.now();
            }
          },
          "sender", cpu);
      cluster.run_on(
          1,
          [&cluster, &done, sizes, compute, p, data, ack] {
            nm::Core& nm = cluster.comm(1);
            std::vector<std::byte> rx(64 * 1024);
            std::uint64_t word = 0;
            for (unsigned k = 0; k < kOps; ++k) {
              const std::size_t i = std::size_t{p} * kOps + k;
              nm::Request* r = nm.irecv(0, data, std::span(rx).first(sizes[i]));
              marcel::this_thread::compute(compute[2 * i + 1]);
              nm.wait(r);
              done[2 * i + 1] = cluster.now();
              word = k;
              nm.wait(nm.isend(0, ack, std::as_bytes(std::span(&word, 1))));
            }
          },
          "receiver", cpu);
    }
  };
}

unsigned soak_seeds() {
  const char* env = std::getenv("PM2_PARK_SOAK_SEEDS");
  const long n = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  return n > 0 ? static_cast<unsigned>(n) : 200;
}

class PollPark : public ::testing::TestWithParam<unsigned> {};

TEST_P(PollPark, SeededSoakMatchesStepped) {
  const unsigned seeds = soak_seeds();
  std::uint64_t parked = 0;
  for (unsigned seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    parked +=
        expect_identical(pioman(2, GetParam()), seeded(GetParam(), seed))
            .parked;
    if (HasFailure()) break;
  }
  EXPECT_GT(parked, 0u) << "no chain was parked";
}

INSTANTIATE_TEST_SUITE_P(Cores, PollPark, ::testing::Values(3, 4, 8),
                         [](const auto& tp) {
                           return "c" + std::to_string(tp.param);
                         });

}  // namespace
}  // namespace pm2
