// A core builds its service fiber, and maps its stack, the first time it
// enters service mode: for a tasklet or for idle hooks.  A core that only
// runs threads maps no service stack.
//
// Stack counts are per host thread, and a recycled stack is not a new
// mapping, so each test runs on a fresh host thread whose pool is empty.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "marcel/runtime.hpp"
#include "marcel/tasklet.hpp"
#include "nmad/coll/coll.hpp"
#include "pm2/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pm2::marcel {
namespace {

template <class Fn>
void on_fresh_thread(Fn fn) {
  std::thread(fn).join();
}

Config one_node(unsigned cpus) {
  Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = cpus;
  return cfg;
}

TEST(CpuServiceFiber, AppDrivenClusterMapsOnlyItsThreadsStacks) {
  on_fresh_thread([] {
    constexpr unsigned kNodes = 8;
    ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.cpus_per_node = 4;
    cfg.pioman = false;
    Cluster cluster(cfg);
    EXPECT_EQ(sim::Fiber::stacks_mapped(), 0u) << "construction mapped stacks";
    for (unsigned r = 0; r < kNodes; ++r) {
      cluster.run_on(r, [&cluster, r] {
        this_thread::compute(10 * kUs);
        nm::coll::Engine& coll = cluster.coll(r);
        coll.wait(coll.ibarrier());
      });
    }
    cluster.run();
    // One stack per application thread; 32 idle cores add none.
    EXPECT_EQ(sim::Fiber::stacks_mapped(), kNodes);
  });
}

TEST(CpuServiceFiber, IdleCoreMapsItsStackAtFirstIdleEntry) {
  on_fresh_thread([] {
    sim::Engine eng;
    Runtime rt(eng, one_node(2));
    Node& node = rt.node(0);
    std::size_t mapped_at_first_poll = 0;
    SimTime first_poll = kSimTimeNever;
    node.add_idle_hook([&](Cpu& cpu) {
      if (first_poll == kSimTimeNever && cpu.index() == 1) {
        first_poll = eng.now();
        mapped_at_first_poll = sim::Fiber::stacks_mapped();
      }
      return false;
    });
    EXPECT_EQ(sim::Fiber::stacks_mapped(), 0u);
    // A busy thread on cpu 0 kicks idle cpu 1 into its idle hooks.
    node.spawn([] { this_thread::compute(50 * kUs); }, Priority::kNormal,
               "app", /*cpu_hint=*/0);
    EXPECT_EQ(sim::Fiber::stacks_mapped(), 1u) << "only the thread's stack";
    eng.run();
    ASSERT_NE(first_poll, kSimTimeNever) << "cpu 1 never polled";
    EXPECT_LT(first_poll, 50 * kUs) << "cpu 1 polled only after the thread";
    // The thread (still computing) plus cpu 1's service fiber.
    EXPECT_EQ(mapped_at_first_poll, 2u);
  });
}

TEST(CpuServiceFiber, TaskletOnCoreWithoutIdleHooksRuns) {
  on_fresh_thread([] {
    sim::Engine eng;
    Runtime rt(eng, one_node(1));
    int runs = 0;
    Tasklet t([&] { ++runs; });
    t.schedule_on(rt.node(0).cpu(0));
    EXPECT_EQ(sim::Fiber::stacks_mapped(), 0u);
    eng.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sim::Fiber::stacks_mapped(), 1u) << "the service fiber's stack";
  });
}

}  // namespace
}  // namespace pm2::marcel
