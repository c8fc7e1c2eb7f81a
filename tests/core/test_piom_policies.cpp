// PIOMan policies: poll-owner exclusivity, work probe, critical arming,
// tick-offload knob, method switching hysteresis.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/cond.hpp"
#include "core/server.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"

namespace pm2::piom {
namespace {

using marcel::this_thread::compute;

/// A source with a poll callback only: no work probe and no engine-context
/// empty poll, so every poll runs on the polling fiber.
int add_poll(Server& server, std::function<bool(marcel::Cpu&)> poll) {
  return server.add_source({.name = "test", .poll = std::move(poll)});
}

struct Machine {
  sim::Engine eng;
  marcel::Runtime rt;
  Server server;
  explicit Machine(unsigned cpus, Config pcfg = {})
      : rt(eng, mk(cpus)), server(rt.node(0), pcfg) {}
  static marcel::Config mk(unsigned cpus) {
    marcel::Config c;
    c.nodes = 1;
    c.cpus_per_node = cpus;
    return c;
  }
  marcel::Node& node() { return rt.node(0); }
};

TEST(PiomPolicies, SinglePollerExclusivity) {
  // With several idle cores and one armed server, only one core at a time
  // runs the poll loop (tasklet-style exclusivity, §2.1).
  Machine m(4);
  std::vector<unsigned> pollers;
  add_poll(m.server, [&](marcel::Cpu& cpu) {
    pollers.push_back(cpu.index());
    if (pollers.size() >= 20) {
      m.server.disarm();
      return true;
    }
    return false;
  });
  m.node().spawn([&] {
    m.server.arm();
    compute(100 * kUs);
  });
  m.eng.run();
  ASSERT_GE(pollers.size(), 20u);
  // All polls of the armed period come from a single core.
  for (const unsigned p : pollers) EXPECT_EQ(p, pollers.front());
}

TEST(PiomPolicies, WorkProbeKeepsPolling) {
  Machine m(2);
  int probe_calls = 0;
  int polls = 0;
  bool external_work = true;
  m.server.add_source({
      .name = "test",
      .poll =
          [&](marcel::Cpu&) {
            if (++polls >= 8) external_work = false;  // "queue drained"
            return false;
          },
      .has_work =
          [&] {
            ++probe_calls;
            return external_work;
          },
  });
  // No armed request — only the probe keeps the poller alive.
  m.node().spawn([&] { compute(10 * kUs); });
  m.node().runtime().engine().run();
  EXPECT_GE(polls, 8);
  EXPECT_GT(probe_calls, 0);
}

TEST(PiomPolicies, NotifyWorkWakesParkedCores) {
  Machine m(2);
  int polls = 0;
  bool have_work = false;
  m.server.add_source({
      .name = "test",
      .poll =
          [&](marcel::Cpu&) {
            ++polls;
            have_work = false;
            return true;
          },
      .has_work = [&] { return have_work; },
  });
  // Let all cores park first, then signal external work.
  m.eng.schedule_at(50 * kUs, [&] {
    have_work = true;
    m.server.notify_work();
  });
  m.node().spawn([] { compute(1 * kUs); });
  m.eng.run();
  EXPECT_GE(polls, 1) << "a parked core must resume polling on notify";
}

TEST(PiomPolicies, CriticalCountsIndependently) {
  Machine m(1);
  m.node().spawn([&] {
    m.server.arm();
    EXPECT_EQ(m.server.armed(), 1u);
    EXPECT_EQ(m.server.armed_critical(), 0u);
    m.server.arm_critical();
    EXPECT_EQ(m.server.armed_critical(), 1u);
    m.server.disarm_critical();
    m.server.disarm();
    EXPECT_EQ(m.server.armed(), 0u);
  });
  m.eng.run();
}

TEST(PiomPolicies, MethodRevertsWhenCoreFrees) {
  Machine m(2);
  int enables = 0, disables = 0;
  m.server.set_block_support({[&] { ++enables; }, [&] { ++disables; }});
  // Saturate both cores briefly with a critical request armed.
  m.node().spawn(
      [&] {
        m.server.arm();
        m.server.arm_critical();
        compute(100 * kUs);
        // Cores free up when this thread blocks: method must flip back.
        marcel::this_thread::sleep(100 * kUs);
        m.server.disarm_critical();
        m.server.disarm();
      },
      marcel::Priority::kNormal, "a", 0);
  m.node().spawn([&] { compute(150 * kUs); }, marcel::Priority::kNormal, "b",
                 1);
  m.eng.run();
  EXPECT_GE(enables, 1);
  EXPECT_GE(disables, 1) << "interrupts must disarm once a core idles";
}

TEST(PiomPolicies, OffloadOnTickRunsPostedOnBusyCore) {
  Config pcfg;
  pcfg.offload_on_tick = true;
  Machine m(1, pcfg);
  SimTime ran_at = kSimTimeNever;
  m.node().spawn([&] {
    m.server.post([&] { ran_at = m.eng.now(); });
    compute(500 * kUs);  // single busy core: only the tick can run it
    m.server.progress_once();
  });
  m.eng.run();
  // Default tick is 100us: the item must run at the first tick, well
  // before the 500us compute finishes.
  EXPECT_LE(ran_at, 150 * kUs);
}

TEST(PiomPolicies, NoTickOffloadByDefault) {
  Machine m(1);
  SimTime ran_at = 0;
  m.node().spawn([&] {
    m.server.post([&] { ran_at = m.eng.now(); });
    compute(500 * kUs);
    m.server.progress_once();
  });
  m.eng.run();
  EXPECT_GE(ran_at, 500 * kUs) << "without the knob, the flush runs it";
}

TEST(PiomPolicies, ShutdownUnblocksLwp) {
  Machine m(1);
  m.server.set_block_support({[] {}, [] {}});
  m.node().spawn([&] { compute(5 * kUs); });
  m.eng.run_until(10 * kUs);
  m.server.shutdown();
  m.eng.run();  // must terminate with the LWP exited
  SUCCEED();
}

}  // namespace
}  // namespace pm2::piom
