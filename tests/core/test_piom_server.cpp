// PIOMan server: request arming, posted-work offload to idle cores,
// wait-path flush, ltask polling, Cond wakeups, detection-method switching.
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

TEST(PiomServer, PostedWorkOffloadsToIdleCore) {
  Machine m(2);
  unsigned ran_on = 99;
  SimTime ran_at = 0;
  m.node().spawn(
      [&] {
        m.server.post([&] {
          ran_on = marcel::this_thread::cpu().index();
          ran_at = m.eng.now();
        });
        compute(100 * kUs);  // the posting core stays busy
      },
      marcel::Priority::kNormal, "app", 0);
  m.rt.engine().run();
  EXPECT_EQ(ran_on, 1u) << "work must run on the idle core";
  EXPECT_LT(ran_at, 20 * kUs) << "offload must not wait for the compute";
  EXPECT_EQ(m.server.stats().posted_offloaded, 1u);
}

TEST(PiomServer, PostedWorkRunsInFlushWhenNoIdleCore) {
  Machine m(1);  // single core: never idle while the app computes
  bool ran = false;
  SimTime ran_at = 0;
  m.node().spawn([&] {
    m.server.post([&] {
      ran = true;
      ran_at = m.eng.now();
    });
    compute(50 * kUs);
    m.server.progress_once();  // a test() flushes, as a wait does
  });
  m.rt.engine().run();
  EXPECT_TRUE(ran);
  EXPECT_GE(ran_at, 50 * kUs) << "no idle core: runs at the flush";
  EXPECT_EQ(m.server.stats().posted_flushed, 1u);
  EXPECT_EQ(m.server.stats().posted_offloaded, 0u);
}

TEST(PiomServer, FlushBeatsOffloadRace) {
  // Post + immediate flush: the item must run exactly once.
  Machine m(4);
  int runs = 0;
  m.node().spawn([&] {
    m.server.post([&] { ++runs; });
    m.server.progress_once();
    compute(10 * kUs);
  });
  m.rt.engine().run();
  EXPECT_EQ(runs, 1);
}

TEST(PiomServer, LtaskPolledWhileArmed) {
  Machine m(2);
  int polls = 0;
  bool completed = false;
  add_poll(m.server, [&](marcel::Cpu&) {
    ++polls;
    if (polls >= 10 && !completed) {
      completed = true;
      m.server.disarm();
      return true;
    }
    return false;
  });
  m.node().spawn(
      [&] {
        m.server.arm();
        compute(200 * kUs);
      },
      marcel::Priority::kNormal, "app", 0);
  m.rt.engine().run();
  EXPECT_TRUE(completed) << "idle core must poll the ltask to completion";
  EXPECT_GE(polls, 10);
}

TEST(PiomServer, NoPollingWhenDisarmed) {
  Machine m(2);
  int polls = 0;
  add_poll(m.server, [&](marcel::Cpu&) {
    ++polls;
    return false;
  });
  m.node().spawn([&] { compute(50 * kUs); });
  m.rt.engine().run();
  EXPECT_EQ(polls, 0) << "no armed request: the ltask must not run";
}

TEST(PiomServer, CondSignalWakesWaiter) {
  Machine m(2);
  Cond cond(m.server);
  SimTime woke_at = 0;
  m.node().spawn(
      [&] {
        compute(30 * kUs);
        cond.signal();
      },
      marcel::Priority::kNormal, "signaller", 0);
  m.node().spawn(
      [&] {
        cond.wait();
        woke_at = m.eng.now();
      },
      marcel::Priority::kNormal, "waiter", 1);
  m.rt.engine().run();
  EXPECT_GE(woke_at, 30 * kUs);
  EXPECT_LE(woke_at, 40 * kUs);
}

TEST(PiomServer, CondWaitPollsWhileWaiting) {
  Machine m(1);
  Cond cond(m.server);
  int polls = 0;
  add_poll(m.server, [&](marcel::Cpu&) {
    if (++polls >= 5) {
      if (!cond.done()) {
        cond.signal();
        m.server.disarm();
      }
      return true;
    }
    return false;
  });
  m.node().spawn([&] {
    m.server.arm();
    cond.wait();  // single core: the waiter itself must poll
  });
  m.rt.engine().run();
  EXPECT_TRUE(cond.done());
  EXPECT_GE(polls, 5);
}

TEST(PiomServer, MethodSwitchesToBlockingWhenAllCoresBusy) {
  Machine m(2);
  int enables = 0, disables = 0;
  m.server.set_block_support({[&] { ++enables; }, [&] { ++disables; }});
  // Two app threads occupy both cores with a reactivity-critical request
  // (a rendezvous handshake in real use); the LWP itself is blocked.
  for (int i = 0; i < 2; ++i) {
    m.node().spawn(
        [&] {
          m.server.arm();
          m.server.arm_critical();
          compute(300 * kUs);
          m.server.disarm_critical();
          m.server.disarm();
        },
        marcel::Priority::kNormal, "busy", i);
  }
  m.rt.engine().run();
  EXPECT_GE(enables, 1) << "all cores busy + critical: interrupts must arm";
  EXPECT_GE(m.server.stats().method_switches, 1u);
}

TEST(PiomServer, EagerTrafficDoesNotArmInterrupts) {
  Machine m(2);
  int enables = 0;
  m.server.set_block_support({[&] { ++enables; }, [] {}});
  for (int i = 0; i < 2; ++i) {
    m.node().spawn(
        [&] {
          m.server.arm();  // non-critical (eager) request
          compute(300 * kUs);
          m.server.disarm();
        },
        marcel::Priority::kNormal, "busy", i);
  }
  m.rt.engine().run();
  EXPECT_EQ(enables, 0)
      << "plain eager requests must not trigger the blocking method";
}

TEST(PiomServer, InterruptWakesLwpAndPolls) {
  Machine m(1);
  int polls = 0;
  bool done = false;
  add_poll(m.server, [&](marcel::Cpu&) {
    ++polls;
    if (!done) {
      done = true;
      m.server.disarm();
    }
    return true;
  });
  m.server.set_block_support({[] {}, [] {}});
  SimTime poll_at = 0;
  m.node().spawn([&] {
    m.server.arm();
    // Simulate a NIC interrupt 20us into a long compute.
    m.eng.schedule_after(20 * kUs, [&] { m.server.on_interrupt(); });
    compute(200 * kUs);
    poll_at = m.eng.now();
  });
  m.rt.engine().run();
  EXPECT_TRUE(done) << "the LWP must have polled after the interrupt";
  EXPECT_GE(m.server.stats().interrupts, 1u);
  // The LWP preempted the compute: the poll happened near t=20us, well
  // before the compute finished.
  EXPECT_GE(polls, 1);
}

TEST(PiomServer, ManyPostedItemsAllRunOnce) {
  Machine m(4);
  constexpr int kItems = 100;
  std::vector<int> runs(kItems, 0);
  m.node().spawn([&] {
    for (int i = 0; i < kItems; ++i) {
      m.server.post([&runs, i] { ++runs[i]; });
    }
    compute(50 * kUs);
    m.server.progress_once();
  });
  m.rt.engine().run();
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(runs[i], 1) << "item " << i;
}

TEST(PiomServer, PostedOrderIsFifo) {
  Machine m(2);
  std::vector<int> order;
  m.node().spawn(
      [&] {
        for (int i = 0; i < 5; ++i) {
          m.server.post([&order, i] { order.push_back(i); });
        }
        compute(50 * kUs);
        m.server.progress_once();
      },
      marcel::Priority::kNormal, "app", 0);
  m.rt.engine().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}


TEST(PiomServer, SourceRemovedInAnEngineOpenedRoundIsSweptAtDepthZero) {
  // Two sources; the second (a collective engine's, say) is removed by a
  // completion inside the first's sixth burn, while that round — opened
  // in engine context — is open: it is tombstoned, skipped for the rest
  // of the round, and swept when the round closes.  Timings are the
  // stepped loop's: rounds of 2 × 150 ns burns and a 300 ns gap from the
  // wait at t = 500.
  Machine m(1);
  Cond cond(m.server);
  bool packet = false;
  int polls = 0;
  int coll_polls = 0;
  m.server.add_source({
      .name = "nm",
      .poll =
          [&](marcel::Cpu&) {
            ++polls;
            if (!packet) return false;
            packet = false;
            cond.signal();
            m.server.disarm();
            return true;
          },
      .has_work = [&] { return packet; },
      .quiet = [&] { return !packet; },
      .poll_empty = [&](std::uint64_t n) { polls += static_cast<int>(n); },
  });
  const int coll = m.server.add_source({
      .name = "coll",
      .poll =
          [&](marcel::Cpu&) {
            ++coll_polls;
            return false;
          },
      .quiet = [] { return true; },
      .poll_empty =
          [&](std::uint64_t n) { coll_polls += static_cast<int>(n); },
  });
  std::size_t slots_at_removal = 0;
  std::uint64_t engine_rounds_at_removal = 0;
  SimTime woke_at = 0;
  m.node().spawn([&] {
    m.server.arm();
    m.eng.schedule_at(500 + 5 * 600 + 75, [&] {
      m.server.remove_source(coll);
      slots_at_removal = m.server.source_slots();
      engine_rounds_at_removal = m.node().cpu(0).stats().engine_polls;
    });
    m.eng.schedule_at(500 + 20 * kUs, [&] {
      packet = true;
      m.server.notify_work();
    });
    cond.wait();
    woke_at = m.eng.now();
  });
  m.rt.engine().run();
  EXPECT_EQ(engine_rounds_at_removal, 5u) << "rounds 2-6 opened in engine";
  EXPECT_EQ(slots_at_removal, 2u) << "removed mid-round: tombstoned";
  EXPECT_EQ(m.server.source_slots(), 1u) << "swept once no round is open";
  EXPECT_EQ(coll_polls, 5);
  EXPECT_EQ(polls, 44);
  EXPECT_EQ(woke_at, 20750u);
  EXPECT_EQ(m.server.stats().poll_rounds, 44u);
}

}  // namespace
}  // namespace pm2::piom
