// Schedule-exploration harness: determinism of the fuzzer itself, and the
// soak — the same communication workload run under hundreds of seeded
// schedule perturbations, with the lockdep checker and the cross-layer
// invariants enabled.  A failure prints the seed and the decision trace,
// which replays the exact interleaving (PM2_FUZZ_SEED on any binary).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "marcel/lockdep.hpp"
#include "pm2/cluster.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::sim {
namespace {

TEST(ScheduleFuzz, SameSeedSameDecisions) {
  ScheduleFuzzer a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.perturb_chunk(10 * kUs), b.perturb_chunk(10 * kUs));
    EXPECT_EQ(a.perturb_tick(100 * kUs), b.perturb_tick(100 * kUs));
    EXPECT_EQ(a.perturb_delay(kUs), b.perturb_delay(kUs));
    EXPECT_EQ(a.perturb_event_time(i * kUs), b.perturb_event_time(i * kUs));
    EXPECT_EQ(a.interleave_delay("x"), b.interleave_delay("x"));
    SimDuration da = 0, db = 0;
    EXPECT_EQ(a.churn_idle(&da), b.churn_idle(&db));
    EXPECT_EQ(da, db);
  }
  EXPECT_EQ(a.decision_count(), b.decision_count());
}

TEST(ScheduleFuzz, DifferentSeedsDiverge) {
  ScheduleFuzzer a(1), b(2);
  int diffs = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.perturb_chunk(10 * kUs) != b.perturb_chunk(10 * kUs)) ++diffs;
    if (a.perturb_tick(100 * kUs) != b.perturb_tick(100 * kUs)) ++diffs;
  }
  EXPECT_GT(diffs, 10) << "distinct seeds must produce distinct schedules";
}

TEST(ScheduleFuzz, PerturbationsStayInBounds) {
  ScheduleFuzzer f(7);
  const auto& opt = f.options();
  for (int i = 0; i < 2000; ++i) {
    const SimDuration chunk = f.perturb_chunk(10 * kUs);
    EXPECT_GE(chunk, 1);
    EXPECT_LE(chunk, 10 * kUs);
    const SimDuration tick = f.perturb_tick(100 * kUs);
    EXPECT_GE(tick, 100 * kUs);
    EXPECT_LE(tick, 100 * kUs + opt.max_tick_jitter);
    const SimDuration delay = f.perturb_delay(0);
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, opt.max_delay_jitter);
    const SimTime t = f.perturb_event_time(kMs);
    EXPECT_GE(t, kMs);
    EXPECT_LE(t, kMs + opt.max_event_jitter);
    const SimDuration w = f.interleave_delay("site");
    EXPECT_GE(w, 0);
    EXPECT_LE(w, opt.max_interleave);
    SimDuration churn = 0;
    if (f.churn_idle(&churn)) {
      EXPECT_GE(churn, 1);
      EXPECT_LE(churn, opt.max_churn_delay);
    }
  }
}

TEST(ScheduleFuzz, ZeroedOptionsAreIdentity) {
  ScheduleFuzzer::Options opt;
  opt.chunk_cut_pct = 0;
  opt.tick_jitter_pct = 0;
  opt.delay_jitter_pct = 0;
  opt.event_jitter_pct = 0;
  opt.idle_churn_pct = 0;
  opt.interleave_pct = 0;
  ScheduleFuzzer f(9, opt);
  EXPECT_EQ(f.perturb_chunk(5 * kUs), 5 * kUs);
  EXPECT_EQ(f.perturb_tick(100 * kUs), 100 * kUs);
  EXPECT_EQ(f.perturb_delay(kUs), kUs);
  EXPECT_EQ(f.perturb_event_time(kMs), kMs);
  EXPECT_EQ(f.interleave_delay("x"), 0);
  SimDuration d = 123;
  EXPECT_FALSE(f.churn_idle(&d));
  EXPECT_EQ(f.decision_count(), 0u);
}

TEST(ScheduleFuzz, InterleavePointIsNoopWithoutActiveFuzzer) {
  set_active_fuzzer(nullptr);
  fuzz::interleave_point("nowhere");  // must not crash
  SUCCEED();
}

TEST(ScheduleFuzz, TraceMentionsSeedAndSites) {
  ScheduleFuzzer f(123);
  for (int i = 0; i < 50; ++i) {
    (void)f.perturb_chunk(10 * kUs);
    (void)f.interleave_delay("my-site");
  }
  const std::string trace = f.format_trace();
  EXPECT_NE(trace.find("seed=123"), std::string::npos);
  EXPECT_NE(trace.find("my-site"), std::string::npos) << trace;
}

// ---------------------------------------------------------------- the soak

// One seeded run of the reference workload: a handful of eager messages
// plus one rendezvous transfer, with overlap compute on both sides.  Every
// other send completes through a test() spin and every other receive
// through a 3 us wait_for() retry loop, so the soak covers the one-round
// progress pass, the timed pre-block window and the deadline event too.
// Returns the failure diagnostics ("" on success).
std::string soak_one(std::uint64_t seed) {
  std::string diag;
  lockdep::reset();

  constexpr int kEager = 4;
  constexpr std::size_t kEagerBytes = 512;
  constexpr std::size_t kRdvBytes = 100 * 1024;

  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 2;
  cfg.fuzz_seed = seed;
  Cluster cluster(cfg);

  std::vector<std::vector<std::byte>> tx(kEager + 1), rx(kEager + 1);
  for (int i = 0; i <= kEager; ++i) {
    const std::size_t n = i < kEager ? kEagerBytes : kRdvBytes;
    tx[i].assign(n, std::byte(i + 1));
    rx[i].assign(n, std::byte(0));
  }
  bool sender_done = false, receiver_done = false;
  cluster.run_on(0, [&] {
    nm::Core& nm = cluster.comm(0);
    for (int i = 0; i <= kEager; ++i) {
      nm::Request* s = nm.isend(1, i, tx[i]);
      marcel::this_thread::compute(9 * kUs);  // overlap
      if (i % 2 == 0) {
        nm.wait(s);
      } else {
        while (!nm.test(s)) {
        }
      }
    }
    sender_done = true;
  });
  cluster.run_on(1, [&] {
    nm::Core& nm = cluster.comm(1);
    for (int i = 0; i <= kEager; ++i) {
      nm::Request* r = nm.irecv(0, i, rx[i]);
      marcel::this_thread::compute(13 * kUs);  // overlap
      if (i % 2 == 0) {
        nm.wait(r);
      } else {
        while (nm.wait_for(r, 3 * kUs) == Status::kTimedOut) {
        }
      }
    }
    receiver_done = true;
  });
  cluster.run();

  auto fail = [&](const std::string& what) {
    if (diag.empty()) {
      diag = "seed " + std::to_string(seed) + ": ";
    } else {
      diag += "; ";
    }
    diag += what;
  };

  if (!sender_done) fail("sender thread stranded");
  if (!receiver_done) fail("receiver thread stranded");
  for (int i = 0; i <= kEager; ++i) {
    if (rx[i] != tx[i]) fail("payload " + std::to_string(i) + " corrupted");
  }
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const piom::Server* server = cluster.server(n);
    const auto& ps = server->stats();
    if (ps.posted_items != ps.posted_offloaded + ps.posted_flushed) {
      fail("node " + std::to_string(n) + " posted ledger broken");
    }
    if (server->posted_pending() != 0) {
      fail("node " + std::to_string(n) + " posted work left behind");
    }
    if (server->armed() != 0 || server->armed_critical() != 0) {
      fail("node " + std::to_string(n) + " requests left armed");
    }
  }
  if (!cluster.engine().empty()) fail("engine failed to drain");
  if (lockdep::violation_count() != 0) {
    fail("lockdep: " + lockdep::report());
  }
  if (!diag.empty() && cluster.fuzzer() != nullptr) {
    diag += "\n" + cluster.fuzzer()->format_trace();
  }
  return diag;
}

TEST(ScheduleFuzzSoak, InvariantsHoldAcrossSeeds) {
  // PM2_FUZZ_SOAK_SEEDS deepens the sweep (CI runs more than the local
  // default); seed 0 means "fuzzer off", so the sweep starts at 1.
  std::uint64_t seeds = 200;
  if (const char* env = std::getenv("PM2_FUZZ_SOAK_SEEDS"); env != nullptr) {
    seeds = std::strtoull(env, nullptr, 0);
  }
  lockdep::Session session;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::string diag = soak_one(seed);
    ASSERT_TRUE(diag.empty()) << diag;
  }
}

TEST(ScheduleFuzzSoak, SameSeedSameSimulation) {
  // The whole point of seed replay: two runs of one seed must agree on the
  // final virtual clock and the scheduling statistics, decision for
  // decision.
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.cpus_per_node = 2;
    cfg.fuzz_seed = seed;
    Cluster cluster(cfg);
    std::vector<std::byte> tx(8 * 1024, std::byte(7)), rx(8 * 1024);
    cluster.run_on(0, [&] {
      cluster.comm(0).wait(cluster.comm(0).isend(1, 1, tx));
    });
    cluster.run_on(1, [&] {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    });
    cluster.run();
    const auto stats = cluster.runtime().total_stats();
    return std::tuple{cluster.now(), stats.ctx_switches, stats.dispatches,
                      cluster.fuzzer()->decision_count()};
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78)) << "distinct seeds should differ somewhere";
}

}  // namespace
}  // namespace pm2::sim
