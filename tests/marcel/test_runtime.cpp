// Runtime-level topology and statistics aggregation.
#include <gtest/gtest.h>

#include "marcel/runtime.hpp"
#include "sim/engine.hpp"

namespace pm2::marcel {
namespace {

TEST(Runtime, TopologyMatchesConfig) {
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 3;
  cfg.cpus_per_node = 5;
  Runtime rt(eng, cfg);
  EXPECT_EQ(rt.node_count(), 3u);
  for (unsigned n = 0; n < 3; ++n) {
    EXPECT_EQ(rt.node(n).index(), n);
    EXPECT_EQ(rt.node(n).cpu_count(), 5u);
    for (unsigned c = 0; c < 5; ++c) {
      EXPECT_EQ(rt.node(n).cpu(c).index(), c);
    }
  }
}

TEST(Runtime, TotalStatsAggregatesAcrossNodes) {
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 1;
  Runtime rt(eng, cfg);
  rt.node(0).spawn([] { this_thread::compute(10 * kUs); });
  rt.node(1).spawn([] { this_thread::compute(30 * kUs); });
  eng.run();
  const Cpu::Stats total = rt.total_stats();
  EXPECT_GE(total.thread_busy_ns, 40 * kUs);
  EXPECT_LE(total.thread_busy_ns, 42 * kUs);
  EXPECT_GE(total.ctx_switches, 2u);
}

TEST(Runtime, SpawnRoundRobinsAcrossCpus) {
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 3;
  cfg.work_stealing = false;  // keep threads where they were placed
  Runtime rt(eng, cfg);
  std::vector<unsigned> ran_on;
  for (int i = 0; i < 6; ++i) {
    rt.node(0).spawn([&] { ran_on.push_back(this_thread::cpu().index()); });
  }
  eng.run();
  ASSERT_EQ(ran_on.size(), 6u);
  // Two full rounds over cpus 0,1,2.
  EXPECT_EQ(ran_on[0], 0u);
  EXPECT_EQ(ran_on[1], 1u);
  EXPECT_EQ(ran_on[2], 2u);
}

TEST(Runtime, CpuHintPinsThread) {
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 4;
  cfg.work_stealing = false;
  Runtime rt(eng, cfg);
  unsigned ran_on = 99;
  rt.node(0).spawn([&] { ran_on = this_thread::cpu().index(); },
                   Priority::kNormal, "pinned", /*cpu_hint=*/2);
  eng.run();
  EXPECT_EQ(ran_on, 2u);
}

TEST(Runtime, ZeroWorkMachineDrains) {
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 4;
  cfg.cpus_per_node = 8;
  Runtime rt(eng, cfg);
  eng.run();  // no threads: nothing to do, must terminate instantly
  EXPECT_EQ(eng.now(), 0u);
}

TEST(Runtime, DestroyedMidComputeLeavesNothingInTheEngine) {
  // One core mid-compute (its resume and tick timers in the heap), one
  // spinning on a word that never clears (a granule on the side list):
  // destroying the runtime must leave no key that calls back into it.
  sim::Engine eng;
  Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 2;
  bool finished = false;
  const void* word = &word;
  {
    Runtime rt(eng, cfg);
    rt.node(0).spawn([&] {
      this_thread::compute(100 * kUs);
      finished = true;
    }, Priority::kNormal, "computer", 0);
    rt.node(0).spawn([&] { this_thread::spin_granule(50, &word); },
                     Priority::kNormal, "spinner", 1);
    ASSERT_TRUE(eng.run_until(10 * kUs));
    ASSERT_FALSE(eng.empty());
    ASSERT_GT(eng.side_processed(), 0u);
  }
  const std::uint64_t events = eng.events_processed();
  const std::uint64_t side = eng.side_processed();
  EXPECT_TRUE(eng.empty());
  eng.run();
  EXPECT_FALSE(finished);
  EXPECT_EQ(eng.events_processed(), events);
  EXPECT_EQ(eng.side_processed(), side);
  EXPECT_EQ(eng.now(), 10 * kUs);
}

}  // namespace
}  // namespace pm2::marcel
