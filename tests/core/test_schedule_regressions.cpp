// Regression tests for the engine races flushed out by the schedule
// explorer.  Each test pins one historical bug:
//  * ltask callbacks mutating the ltask list mid poll round (UB: iterator
//    invalidation + destroying a std::function while it executes),
//  * ~Server leaving the LWP fiber schedulable after teardown (UAF),
//  * an interrupt landing in the LWP's pre-block window waking a fiber
//    that is not blocked yet (scheduler invariant abort + stranded event),
//  * a Cond signal landing between the waiter's last done_ check and its
//    block (lost wakeup: the waiter sleeps forever).
// The race-window tests force the window open with a schedule fuzzer
// (interleave probability 100%) and sweep seeds so the external event
// lands at many offsets inside it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/cond.hpp"
#include "core/server.hpp"
#include "marcel/lockdep.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/schedule_fuzz.hpp"

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

// Keeps the process-global fuzzer pointer clean even when a test exits
// early; the machine under test must be destroyed before the fuzzer.
struct FuzzerGuard {
  ~FuzzerGuard() { sim::set_active_fuzzer(nullptr); }
};

TEST(ScheduleRegression, LtaskMayUnregisterItselfMidRound) {
  Machine m(1);
  int runs1 = 0, runs2 = 0, runs3 = 0;
  int id2 = 0;
  add_poll(m.server, [&](marcel::Cpu&) {
    ++runs1;
    return false;
  });
  id2 = add_poll(m.server, [&](marcel::Cpu&) {
    ++runs2;
    // Historical UB: erase shifted the vector under the range-for AND
    // destroyed this std::function while its body was still executing.
    m.server.remove_source(id2);
    return true;
  });
  add_poll(m.server, [&](marcel::Cpu&) {
    ++runs3;
    return false;
  });
  m.node().spawn([&] {
    m.server.progress_once();
    m.server.progress_once();
  });
  m.eng.run();
  EXPECT_EQ(runs1, 2);
  EXPECT_EQ(runs2, 1) << "unregistered ltask must not run again";
  EXPECT_EQ(runs3, 2) << "the entry after the unregistered one must not be "
                         "skipped by the shifted vector";
}

TEST(ScheduleRegression, LtaskMayUnregisterAPeerMidRound) {
  Machine m(1);
  int peer_runs = 0;
  int peer_id = 0;
  add_poll(m.server, [&](marcel::Cpu&) {
    if (peer_id != 0) {
      m.server.remove_source(peer_id);
      peer_id = 0;
    }
    return false;
  });
  peer_id = add_poll(m.server, [&](marcel::Cpu&) {
    ++peer_runs;
    return false;
  });
  m.node().spawn([&] {
    m.server.progress_once();
    m.server.progress_once();
  });
  m.eng.run();
  EXPECT_EQ(peer_runs, 0) << "a peer unregistered earlier in the same round "
                             "must not run";
}

TEST(ScheduleRegression, LtaskMayRegisterANewOneMidRound) {
  Machine m(1);
  int new_runs = 0;
  bool registered = false;
  add_poll(m.server, [&](marcel::Cpu&) {
    if (!registered) {
      registered = true;
      add_poll(m.server, [&](marcel::Cpu&) {
        ++new_runs;
        return false;
      });
    }
    return false;
  });
  m.node().spawn([&] {
    m.server.progress_once();  // push_back may reallocate under the loop
    m.server.progress_once();
  });
  m.eng.run();
  EXPECT_EQ(new_runs, 2) << "an ltask registered mid-round joins that round";
}

TEST(ScheduleRegression, ServerDestructorJoinsLwp) {
  sim::Engine eng;
  marcel::Runtime rt(eng, Machine::mk(2));
  auto server = std::make_unique<Server>(rt.node(0), Config{});
  bool app_done = false;
  rt.node(0).spawn([&] {
    compute(50 * kUs);
    app_done = true;
  });
  // Let the machine start: the LWP runs, announces itself, and blocks.
  eng.run_until(10 * kUs);
  // Historical UAF: destroying the server only removed its hooks; the LWP
  // fiber (capturing `this`) stayed schedulable and ran on a dead Server
  // at the next engine step.  The fixed destructor drains it.
  server.reset();
  eng.run();
  EXPECT_TRUE(app_done);
  EXPECT_TRUE(eng.empty());
}

TEST(ScheduleRegression, ServerDestructorJoinsNeverRunLwp) {
  // Destroy before the engine ever ran: the LWP is still kReady.
  sim::Engine eng;
  marcel::Runtime rt(eng, Machine::mk(1));
  auto server = std::make_unique<Server>(rt.node(0), Config{});
  server.reset();
  eng.run();
  EXPECT_TRUE(eng.empty());
}

TEST(ScheduleRegression, LwpInterruptInPreBlockWindowIsNotLost) {
  // Force the pre-block window open on every pass and sweep seeds so the
  // interrupt delivery lands at many offsets inside and around it.  With
  // the unfixed on_interrupt this aborts on the scheduler's "waking a
  // thread that is not blocked" invariant; a silently stranded event would
  // show up as interrupts with no poll round.
  FuzzerGuard guard;
  sim::ScheduleFuzzer::Options opt;
  opt.chunk_cut_pct = 0;
  opt.tick_jitter_pct = 0;
  opt.delay_jitter_pct = 0;
  opt.event_jitter_pct = 0;
  opt.idle_churn_pct = 0;
  opt.interleave_pct = 100;  // the window is always open
  opt.max_interleave = 2 * kUs;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::ScheduleFuzzer fuzzer(seed, opt);
    {
      Machine m(1);
      m.rt.attach_fuzzer(&fuzzer);
      for (int i = 0; i < 12; ++i) {
        m.eng.schedule_at(100 + i * 300, [&] { m.server.on_interrupt(); });
      }
      m.eng.run();
      EXPECT_EQ(m.server.stats().interrupts, 12u) << "seed " << seed;
      EXPECT_GE(m.server.stats().poll_rounds, 1u)
          << "seed " << seed << ": interrupt stranded\n"
          << fuzzer.format_trace();
      m.rt.attach_fuzzer(nullptr);
    }
  }
}

TEST(ScheduleRegression, CondSignalInPreBlockWindowIsNotLost) {
  // A busy sibling forces the waiter onto the passive-block path; the
  // signal is swept across the forced pre-block window.  With the unfixed
  // Cond::wait the waiter enlists after signal() already drained the (then
  // empty) waiter list and sleeps forever.
  FuzzerGuard guard;
  sim::ScheduleFuzzer::Options opt;
  opt.chunk_cut_pct = 0;
  opt.tick_jitter_pct = 0;
  opt.delay_jitter_pct = 0;
  opt.event_jitter_pct = 0;
  opt.idle_churn_pct = 0;
  opt.interleave_pct = 100;
  opt.max_interleave = 2 * kUs;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::ScheduleFuzzer fuzzer(seed, opt);
    const SimTime signal_at = 100 + (seed - 1) * 150;
    {
      Machine m(1);
      m.rt.attach_fuzzer(&fuzzer);
      Cond cond(m.server);
      bool waiter_done = false;
      m.node().spawn([&] {
        cond.wait();
        waiter_done = true;
      });
      m.node().spawn([&] { compute(30 * kUs); }, marcel::Priority::kNormal,
                     "busy");
      m.eng.schedule_at(signal_at, [&] { cond.signal(); });
      m.eng.run();
      EXPECT_TRUE(waiter_done)
          << "seed " << seed << ": signal at t=" << signal_at
          << " lost in the pre-block window\n"
          << fuzzer.format_trace();
      m.rt.attach_fuzzer(nullptr);
    }
  }
}

TEST(ScheduleRegression, CondTimedWaitSurvivesPreBlockWindow) {
  FuzzerGuard guard;
  sim::ScheduleFuzzer::Options opt;
  opt.chunk_cut_pct = 0;
  opt.tick_jitter_pct = 0;
  opt.delay_jitter_pct = 0;
  opt.event_jitter_pct = 0;
  opt.idle_churn_pct = 0;
  opt.interleave_pct = 100;
  opt.max_interleave = 2 * kUs;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::ScheduleFuzzer fuzzer(seed, opt);
    const SimTime signal_at = 100 + (seed - 1) * 200;
    {
      Machine m(1);
      m.rt.attach_fuzzer(&fuzzer);
      Cond cond(m.server);
      Status st = Status::kTimedOut;
      bool waiter_done = false;
      m.node().spawn([&] {
        st = cond.wait_for(kMs);
        waiter_done = true;
      });
      m.node().spawn([&] { compute(30 * kUs); }, marcel::Priority::kNormal,
                     "busy");
      m.eng.schedule_at(signal_at, [&] { cond.signal(); });
      m.eng.run();
      EXPECT_TRUE(waiter_done) << "seed " << seed;
      EXPECT_EQ(st, Status::kOk)
          << "seed " << seed << ": signal at t=" << signal_at
          << " lost in the timed pre-block window\n"
          << fuzzer.format_trace();
      m.rt.attach_fuzzer(nullptr);
    }
  }
}

TEST(ScheduleRegression, LostWakeupDetectorStaysQuietOnFixedPaths) {
  // The lockdep lost-wakeup probe sits on the fixed block sites; a fuzzed
  // run across many seeds must never trip it now.
  FuzzerGuard guard;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lockdep::Session session;
    sim::ScheduleFuzzer fuzzer(seed);
    {
      Machine m(2);
      m.rt.attach_fuzzer(&fuzzer);
      Cond cond(m.server);
      m.node().spawn([&] { cond.wait(); });
      m.node().spawn([&] { compute(20 * kUs); });
      m.eng.schedule_at(5 * kUs, [&] { cond.signal(); });
      m.eng.run();
      m.rt.attach_fuzzer(nullptr);
    }
    EXPECT_EQ(lockdep::violation_count(), 0u)
        << "seed " << seed << "\n"
        << lockdep::report() << fuzzer.format_trace();
  }
}

}  // namespace
}  // namespace pm2::piom
