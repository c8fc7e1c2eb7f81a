// piom::Cond: signal/wait orderings, multiple waiters, reuse, and the
// polling wait's chunk boundaries, pinned to the stepped loop's figures.
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

struct Machine {
  sim::Engine eng;
  marcel::Runtime rt;
  Server server;
  explicit Machine(unsigned cpus)
      : rt(eng, mk(cpus)), server(rt.node(0), Config{}) {}
  static marcel::Config mk(unsigned cpus) {
    marcel::Config c;
    c.nodes = 1;
    c.cpus_per_node = cpus;
    return c;
  }
  marcel::Node& node() { return rt.node(0); }
};

TEST(Cond, SignalBeforeWaitReturnsImmediately) {
  Machine m(2);
  Cond cond(m.server);
  SimTime waited_until = kSimTimeNever;
  m.node().spawn([&] {
    cond.signal();
    compute(10 * kUs);
    const SimTime t0 = m.eng.now();
    cond.wait();
    waited_until = m.eng.now() - t0;
  });
  m.eng.run();
  EXPECT_EQ(waited_until, 0u);
}

TEST(Cond, DoubleSignalIsIdempotent) {
  Machine m(1);
  Cond cond(m.server);
  m.node().spawn([&] {
    cond.signal();
    cond.signal();
    EXPECT_TRUE(cond.done());
  });
  m.eng.run();
}

TEST(Cond, MultipleWaitersAllWake) {
  Machine m(4);
  Cond cond(m.server);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    // All waiters pinned to one core so they queue passively behind each
    // other, exercising the waiter-list path.
    m.node().spawn(
        [&] {
          cond.wait();
          ++woke;
        },
        marcel::Priority::kNormal, "waiter", 0);
  }
  m.node().spawn(
      [&] {
        compute(50 * kUs);
        cond.signal();
      },
      marcel::Priority::kNormal, "signaller", 1);
  m.eng.run();
  EXPECT_EQ(woke, 3);
}

TEST(Cond, ResetAllowsReuse) {
  Machine m(2);
  Cond cond(m.server);
  int rounds = 0;
  m.node().spawn(
      [&] {
        for (int i = 0; i < 3; ++i) {
          cond.wait();
          ++rounds;
          cond.reset();
        }
      },
      marcel::Priority::kNormal, "waiter", 0);
  m.node().spawn(
      [&] {
        for (int i = 0; i < 3; ++i) {
          compute(20 * kUs);
          cond.signal();
          // Give the waiter time to consume and reset.
          compute(20 * kUs);
        }
      },
      marcel::Priority::kNormal, "signaller", 1);
  m.eng.run();
  EXPECT_EQ(rounds, 3);
}

TEST(Cond, SignalFromEngineContext) {
  // Completion callbacks (e.g. RDMA delivery) run in engine context and
  // must be able to signal.
  Machine m(1);
  Cond cond(m.server);
  SimTime woke_at = 0;
  m.eng.schedule_at(70 * kUs, [&] { cond.signal(); });
  m.node().spawn([&] {
    cond.wait();
    woke_at = m.eng.now();
  });
  m.eng.run();
  EXPECT_GE(woke_at, 70 * kUs);
  EXPECT_LE(woke_at, 75 * kUs);
}

TEST(Cond, WaitForZeroTimeoutFlushesThenTimesOut) {
  // A zero timeout still runs the posted work (the wait's first flush
  // precedes its first deadline check), then times out without a round.
  Machine m(1);
  Cond cond(m.server);
  Status st = Status::kOk;
  bool ran = false;
  m.node().spawn([&] {
    m.server.post([&] { ran = true; });
    st = cond.wait_for(0);
  });
  m.eng.run();
  EXPECT_EQ(st, Status::kTimedOut);
  EXPECT_TRUE(ran);
  EXPECT_EQ(m.server.stats().posted_flushed, 1u);
  EXPECT_EQ(m.server.stats().poll_rounds, 0u);
}


// ------------------------------------------------------ poll boundaries
//
// A waiting thread's poll loop runs its empty rounds in engine context
// (docs/concurrency.md §8).  These pin what happens when something changes
// inside a round's burn or its gap to the figures of the stepped loop
// (every poll on the fiber), which the expectations were taken from.  The
// waiter arms the server at t = 500 and waits: with one source a round is
// a 150 ns burn, the poll, and a 300 ns gap, so the sixth round burns over
// [2750, 2900] and its gap runs over [2900, 3200].

constexpr SimDuration kRound = 450;
constexpr SimDuration kMidBurn = 5 * kRound + 75;        // t = 2825
constexpr SimDuration kMidGap = 5 * kRound + 150 + 100;  // t = 3000

struct WaitFigures {
  SimTime waited_at = 0;
  SimTime woke_at = 0;
  SimDuration cpu_time = 0;  // the waiter's, at wake-up
  int polls = 0;             // poll() calls plus engine-context empty polls
  int empty_polls = 0;       // of which empty polls in engine context
  SimTime aux = 0;           // scenario-specific instant
  std::uint64_t rounds = 0;
  std::uint64_t passive_blocks = 0;
};

/// One waiter on cpu0 of a `cpus`-core node, polling one source that
/// completes the Cond when `packet` is set.  `before_wait` runs on the
/// waiter right before cond.wait(); `setup` before anything is spawned.
WaitFigures wait_scenario(
    unsigned cpus,
    const std::function<void(Machine&, Cond&, bool& packet, WaitFigures&)>&
        before_wait,
    const std::function<void(Machine&, Cond&)>& setup = nullptr) {
  Machine m(cpus);
  Cond cond(m.server);
  WaitFigures f;
  bool packet = false;
  m.server.add_source({
      .name = "test",
      .poll =
          [&](marcel::Cpu&) {
            ++f.polls;
            if (!packet) return false;
            packet = false;
            cond.signal();
            m.server.disarm();
            return true;
          },
      .has_work = [&] { return packet; },
      .quiet = [&] { return !packet; },
      .poll_empty =
          [&](std::uint64_t n) {
            f.polls += static_cast<int>(n);
            f.empty_polls += static_cast<int>(n);
          },
  });
  if (setup) setup(m, cond);
  m.node().spawn(
      [&] {
        m.server.arm();
        f.waited_at = m.eng.now();
        before_wait(m, cond, packet, f);
        cond.wait();
        f.woke_at = m.eng.now();
        f.cpu_time = marcel::this_thread::self()->cpu_time();
      },
      marcel::Priority::kNormal, "waiter", 0);
  m.eng.run();
  f.rounds = m.server.stats().poll_rounds;
  f.passive_blocks = m.server.stats().cond_passive_blocks;
  return f;
}

/// An engine event `after` from now that makes the source find a packet.
void packet_after(Machine& m, bool& packet, SimDuration after) {
  m.eng.schedule_after(after, [&m, &packet] {
    packet = true;
    m.server.notify_work();
  });
}

TEST(CondPollBoundary, CompletionBySiblingDuringBurnStillPollsOnce) {
  // A sibling core completes the request inside the waiter's sixth burn:
  // the waiter still polls once at the burn's end (one more engine-lock
  // acquisition in nm) — an empty poll, made in engine context — and
  // returns when the round closes.
  const WaitFigures f = wait_scenario(
      2, [](Machine&, Cond&, bool&, WaitFigures&) {},
      [](Machine& m, Cond& cond) {
        m.node().spawn(
            [&m, &cond] {
              compute(500 + kMidBurn - m.eng.now());
              cond.signal();
              m.server.disarm();
            },
            marcel::Priority::kNormal, "signaller", 1);
      });
  EXPECT_EQ(f.waited_at, 500u);
  EXPECT_EQ(f.woke_at, 2900u);
  EXPECT_EQ(f.cpu_time, 2650u);
  EXPECT_EQ(f.polls, 6);
  EXPECT_EQ(f.empty_polls, 6);
  EXPECT_EQ(f.rounds, 6u);
}

TEST(CondPollBoundary, PacketMidBurnIsPolledAtTheBurnsEnd) {
  const WaitFigures f = wait_scenario(
      1, [](Machine& m, Cond&, bool& packet, WaitFigures&) {
        packet_after(m, packet, kMidBurn);
      });
  EXPECT_EQ(f.woke_at, 2900u);
  EXPECT_EQ(f.cpu_time, 2650u);
  EXPECT_EQ(f.polls, 6);
  EXPECT_EQ(f.empty_polls, 5);
  EXPECT_EQ(f.rounds, 6u);
}

TEST(CondPollBoundary, PacketMidGapWaitsForTheNextRound) {
  const WaitFigures f = wait_scenario(
      1, [](Machine& m, Cond&, bool& packet, WaitFigures&) {
        packet_after(m, packet, kMidGap);
      });
  EXPECT_EQ(f.woke_at, 3350u);
  EXPECT_EQ(f.cpu_time, 3100u);
  EXPECT_EQ(f.polls, 7);
  EXPECT_EQ(f.empty_polls, 6);
  EXPECT_EQ(f.rounds, 7u);
}

TEST(CondPollBoundary, WorkPostedMidGapIsFlushedAtTheLoopTop) {
  // One core, busy with the waiter: the post finds no idle core and stays
  // queued until the waiter's next loop top flushes it.
  const WaitFigures f = wait_scenario(
      1, [](Machine& m, Cond& cond, bool&, WaitFigures&) {
        m.eng.schedule_after(kMidGap, [&m, &cond] {
          m.server.post([&m, &cond] {
            cond.signal();
            m.server.disarm();
          });
        });
      });
  EXPECT_EQ(f.woke_at, 3200u);
  EXPECT_EQ(f.cpu_time, 2950u);
  EXPECT_EQ(f.polls, 6);
  EXPECT_EQ(f.rounds, 6u);
}

TEST(CondPollBoundary, ThreadQueuedMidGapBlocksTheWaiterAtTheLoopTop) {
  // A thread queued on the waiter's core mid-gap: at the next loop top
  // the waiter blocks passively and the thread runs, then completes it.
  const WaitFigures f = wait_scenario(
      1, [](Machine& m, Cond& cond, bool&, WaitFigures& fig) {
        m.eng.schedule_after(kMidGap, [&m, &cond, &fig] {
          m.node().spawn([&m, &cond, &fig] {
            fig.aux = m.eng.now();
            compute(3 * kUs);
            cond.signal();
            m.server.disarm();
          });
        });
      });
  EXPECT_EQ(f.passive_blocks, 1u);
  EXPECT_EQ(f.aux, 3450u) << "the queued thread's start";
  EXPECT_EQ(f.woke_at, 6700u);
  EXPECT_EQ(f.cpu_time, 3200u);
  EXPECT_EQ(f.polls, 6);
  EXPECT_EQ(f.rounds, 6u);
}

class CondRealtimeWake : public ::testing::TestWithParam<SimDuration> {};

TEST_P(CondRealtimeWake, HardCutChargesThePartialChunk) {
  // A realtime thread woken mid-burn or mid-gap cuts the chunk at once;
  // the waiter is charged the part it ran, yields, and polls on after.
  const SimDuration at = GetParam();
  const WaitFigures f = wait_scenario(
      1, [at](Machine& m, Cond&, bool& packet, WaitFigures& fig) {
        m.eng.schedule_after(at, [&m, &fig] {
          m.node().spawn(
              [&m, &fig] {
                fig.aux = m.eng.now();
                compute(2 * kUs);
              },
              marcel::Priority::kRealtime, "rt");
        });
        packet_after(m, packet, 20 * kUs);
      });
  EXPECT_EQ(f.aux, 500 + at + 250) << "the realtime thread's start";
  EXPECT_EQ(f.woke_at, 20700u);
  EXPECT_EQ(f.cpu_time, 18200u);
  EXPECT_EQ(f.polls, 40);
  EXPECT_EQ(f.empty_polls, 39);
  EXPECT_EQ(f.rounds, 40u);
}

INSTANTIATE_TEST_SUITE_P(Cut, CondRealtimeWake,
                         ::testing::Values(kMidBurn, kMidGap),
                         [](const auto& tp) {
                           return tp.param == kMidBurn ? "MidBurn" : "MidGap";
                         });

}  // namespace
}  // namespace pm2::piom
