// Hook/probe registration churn: marcel::Node hooks and piom::Server work
// probes sit on the SlotMap registry, so a register/unregister storm of
// 1000 entries is O(N) total (no linear-scan erase) and the tables stay at
// the live-population high-water mark (slot reuse, tail trim).
#include <gtest/gtest.h>

#include <vector>

#include "core/server.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"

namespace pm2::marcel {
namespace {

struct Machine {
  sim::Engine eng;
  Runtime rt;
  explicit Machine(unsigned cpus) : rt(eng, mk(cpus)) {}
  static Config mk(unsigned cpus) {
    Config c;
    c.nodes = 1;
    c.cpus_per_node = cpus;
    return c;
  }
  Node& node() { return rt.node(0); }
};

TEST(HookChurn, NodeHookRegistriesStayDense) {
  Machine m(2);
  Node& n = m.node();
  // 1000 rounds of register-then-unregister, a few entries live at a time.
  std::vector<int> idle, tick, swch;
  for (int i = 0; i < 1000; ++i) {
    idle.push_back(n.add_idle_hook([](Cpu&) { return false; }));
    tick.push_back(n.add_tick_hook([](Cpu&) {}));
    swch.push_back(n.add_switch_hook([](Cpu&) {}));
    if (idle.size() > 4) {
      n.remove_idle_hook(idle.front());
      idle.erase(idle.begin());
      n.remove_tick_hook(tick.front());
      tick.erase(tick.begin());
      n.remove_switch_hook(swch.front());
      swch.erase(swch.begin());
    }
    // Bounded by the live population (≤5), not by the 1000 registrations:
    // the old vector registry kept growing ids and scanned on erase.
    EXPECT_LE(n.idle_hook_slots(), 5u);
    EXPECT_LE(n.tick_hook_slots(), 5u);
    EXPECT_LE(n.switch_hook_slots(), 5u);
  }
  for (const int id : idle) n.remove_idle_hook(id);
  for (const int id : tick) n.remove_tick_hook(id);
  for (const int id : swch) n.remove_switch_hook(id);
  EXPECT_FALSE(n.has_idle_hooks());
  EXPECT_EQ(n.idle_hook_slots(), 0u);
  EXPECT_EQ(n.tick_hook_slots(), 0u);
  EXPECT_EQ(n.switch_hook_slots(), 0u);
}

TEST(HookChurn, SurvivingHooksStillRunAfterChurn) {
  Machine m(1);
  Node& n = m.node();
  int runs = 0;
  // Bury one live hook under a churn of short-lived neighbours; removal of
  // the neighbours must not disturb it (stale-id safety + slot reuse).
  const int keeper = n.add_tick_hook([&](Cpu&) { ++runs; });
  for (int i = 0; i < 1000; ++i) {
    n.remove_tick_hook(n.add_tick_hook([](Cpu&) { FAIL(); }));
  }
  EXPECT_LE(n.tick_hook_slots(), 2u);
  n.spawn([] { this_thread::compute(5 * kMs); });
  m.eng.run();
  EXPECT_GT(runs, 0) << "the surviving hook must keep firing";
  n.remove_tick_hook(keeper);
}

TEST(HookChurn, ServerWorkProbesStayDenseAndReachable) {
  Machine m(2);
  piom::Server server(m.node(), {});
  std::vector<int> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(server.add_source({.name = "churn",
                                     .poll = [](Cpu&) { return false; },
                                     .has_work = [] { return false; }}));
    if (ids.size() > 4) {
      server.remove_source(ids.front());
      ids.erase(ids.begin());
    }
    EXPECT_LE(server.source_slots(), 5u);
  }
  bool probed = false;
  const int live = server.add_source({.name = "live",
                                      .poll = [](Cpu&) { return false; },
                                      .has_work = [&] {
                                        probed = true;
                                        return false;
                                      }});
  // The server's idle hook consults every live source's work probe
  // (has_work) even after the churn: run a short thread so the cpus go
  // idle at least once.
  m.node().spawn([] { this_thread::compute(10 * kUs); });
  m.eng.run();
  EXPECT_TRUE(probed);
  server.remove_source(live);
  for (const int id : ids) server.remove_source(id);
  EXPECT_EQ(server.source_slots(), 0u);
  server.shutdown();
}

}  // namespace
}  // namespace pm2::marcel
