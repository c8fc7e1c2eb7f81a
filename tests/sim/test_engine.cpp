// Discrete-event engine: ordering, determinism, cancellation, run_until,
// caller-owned timers, lanes and run-ahead.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "marcel/runtime.hpp"
#include "netsim/fabric.hpp"
#include "sim/engine.hpp"

namespace pm2::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, RunsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, FifoWithinTimestamp) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_at(100, [&, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedScheduling) {
  Engine eng;
  std::vector<SimTime> times;
  eng.schedule_at(5, [&] {
    times.push_back(eng.now());
    eng.schedule_after(7, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 12}));
}

TEST(Engine, ScheduleNowRunsAfterQueuedSameTime) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] {
    order.push_back(1);
    eng.schedule_now([&] { order.push_back(3); });
  });
  eng.schedule_at(10, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, Cancel) {
  Engine eng;
  bool ran = false;
  const EventId id = eng.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id)) << "double cancel must fail";
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, CancelFromInsideEarlierEvent) {
  Engine eng;
  bool ran = false;
  const EventId later = eng.schedule_at(20, [&] { ran = true; });
  eng.schedule_at(10, [&] { EXPECT_TRUE(eng.cancel(later)); });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(eng.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_TRUE(eng.run_until(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 200u);
}

TEST(Engine, StopInterruptsRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, SchedulingIntoThePastAborts) {
  Engine eng;
  eng.schedule_at(100, [&] {
    EXPECT_DEATH(eng.schedule_at(50, [] {}), "past");
  });
  eng.run();
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<SimTime>((i * 37) % 50),
                      [&order, i] { order.push_back(i); });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StaleIdCannotCancelReusedSlot) {
  Engine eng;
  int first = 0;
  int second = 0;
  const EventId a = eng.schedule_at(10, [&] { ++first; });
  eng.run();
  ASSERT_EQ(first, 1);
  const EventId b = eng.schedule_at(20, [&] { ++second; });
  // The freed callback slot is reused, under a new id.
  ASSERT_NE(a, b);
  ASSERT_EQ(a & 0xffffff, b & 0xffffff);
  EXPECT_FALSE(eng.cancel(a)) << "an id that already ran";
  const EventId c = eng.schedule_at(30, [&] { ++second; });
  EXPECT_TRUE(eng.cancel(c));
  const EventId d = eng.schedule_at(40, [&] { ++second; });
  ASSERT_EQ(c & 0xffffff, d & 0xffffff);
  EXPECT_FALSE(eng.cancel(c)) << "a cancelled id whose slot was reused";
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.run();
  EXPECT_EQ(second, 2);
}

TEST(Engine, CancelInvalidAndTwiceFails) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(kInvalidEventId));
  const EventId id = eng.schedule_at(5, [] {});
  EXPECT_FALSE(eng.cancel(kInvalidEventId));
  EXPECT_FALSE(eng.cancel(id + 1)) << "an id never handed out";
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, CallbackCannotCancelItself) {
  Engine eng;
  EventId self = kInvalidEventId;
  bool cancelled = true;
  self = eng.schedule_at(5, [&] { cancelled = eng.cancel(self); });
  eng.run();
  EXPECT_FALSE(cancelled);
}

TEST(Engine, FifoAcrossManySameTimeEventsWithCancels) {
  Engine eng;
  constexpr int kEvents = 12000;
  std::vector<int> order;
  std::vector<EventId> ids;
  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(eng.schedule_at(1000, [&order, i] { order.push_back(i); }));
    // Cancel every third event a little later, reusing freed slots for
    // the events scheduled after it.
    if (i % 3 == 2) {
      ASSERT_TRUE(eng.cancel(ids[static_cast<std::size_t>(i - 1)]));
    }
  }
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 1) expected.push_back(i);
  }
  EXPECT_EQ(eng.events_pending(), expected.size());
  eng.run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(eng.events_processed(), expected.size());
}

TEST(Engine, PendingAndEmptyTrackCancels) {
  Engine eng;
  const EventId a = eng.schedule_at(10, [] {});
  const EventId b = eng.schedule_at(20, [] {});
  EXPECT_EQ(eng.events_pending(), 2u);
  EXPECT_TRUE(eng.cancel(b));
  EXPECT_EQ(eng.events_pending(), 1u);
  EXPECT_FALSE(eng.empty());
  EXPECT_TRUE(eng.cancel(a));
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_TRUE(eng.empty());
  EXPECT_FALSE(eng.run_one()) << "only cancelled entries remain";
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, RunUntilSkipsCancelledTopWithoutOverrunning) {
  Engine eng;
  int fired = 0;
  const EventId early = eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(100, [&] { ++fired; });
  ASSERT_TRUE(eng.cancel(early));
  EXPECT_TRUE(eng.run_until(50));
  EXPECT_EQ(fired, 0) << "the live event beyond the limit must not run";
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_EQ(eng.events_pending(), 1u);
  EXPECT_TRUE(eng.run_until(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 100u);
}

// A timer that appends its tag to `order` when it runs.
struct Probe {
  Probe(std::vector<int>& o, int t, TimerQueue q = TimerQueue::kHeap)
      : order(o), tag(t), timer(&Probe::run, this, q) {}
  static void run(void* p) {
    auto* self = static_cast<Probe*>(p);
    self->order.push_back(self->tag);
  }
  std::vector<int>& order;
  int tag;
  Timer timer;
};

constexpr TimerQueue kQueues[] = {TimerQueue::kHeap, TimerQueue::kSide};

TEST(EngineTimer, ArmedBetweenTwoSchedulesRunsBetweenThem) {
  for (TimerQueue q : kQueues) {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 2, q);
    eng.schedule_at(10, [&] { order.push_back(1); });
    eng.arm(t.timer, 10);
    eng.schedule_at(10, [&] { order.push_back(3); });
    EXPECT_TRUE(t.timer.armed());
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(t.timer.armed());
  }
}

TEST(EngineTimer, RearmRunsAfterEventsScheduledInBetween) {
  for (TimerQueue q : kQueues) {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 2, q);
    eng.arm(t.timer, 10);
    eng.schedule_at(10, [&] { order.push_back(1); });
    eng.disarm(t.timer);
    EXPECT_FALSE(t.timer.armed());
    eng.disarm(t.timer);  // no-op
    eng.arm(t.timer, 10);
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "stale key must not run";
    EXPECT_EQ(eng.events_processed() + eng.side_processed(), 2u);
  }
}

TEST(EngineTimer, SideTimerAndHeapEventTieInSequenceOrder) {
  {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 1, TimerQueue::kSide);
    eng.arm(t.timer, 10);
    eng.schedule_at(10, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
  {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 2, TimerQueue::kSide);
    eng.schedule_at(10, [&] { order.push_back(1); });
    eng.arm(t.timer, 10);
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
}

TEST(EngineTimer, SideRunsCountApartFromEvents) {
  Engine eng;
  std::vector<int> order;
  Probe side(order, 1, TimerQueue::kSide);
  Probe heap(order, 2);
  eng.arm(side.timer, 5);
  eng.arm(heap.timer, 5);
  eng.schedule_at(5, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.events_processed(), 2u);
  EXPECT_EQ(eng.side_processed(), 1u);
}

TEST(EngineTimer, RunUntilRunsDueSideTimerAndStopsBeforeLater) {
  Engine eng;
  std::vector<int> order;
  Probe due(order, 1, TimerQueue::kSide);
  Probe later(order, 2, TimerQueue::kSide);
  eng.arm(later.timer, 100);
  eng.arm(due.timer, 10);
  EXPECT_TRUE(eng.run_until(50));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_TRUE(later.timer.armed());
  EXPECT_TRUE(eng.run_until(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTimer, PendingAndEmptyCountArmedTimers) {
  for (TimerQueue q : kQueues) {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 1, q);
    eng.arm(t.timer, 10);
    EXPECT_EQ(eng.events_pending(), 1u);
    EXPECT_FALSE(eng.empty());
    eng.schedule_at(20, [] {});
    EXPECT_EQ(eng.events_pending(), 2u);
    eng.disarm(t.timer);
    EXPECT_EQ(eng.events_pending(), 1u);
    eng.arm(t.timer, 10);
    EXPECT_TRUE(eng.run_until(10));
    EXPECT_EQ(eng.events_pending(), 1u);
    eng.run();
    EXPECT_TRUE(eng.empty());
  }
}

TEST(EngineTimer, CancelRefusesATimerId) {
  for (TimerQueue q : kQueues) {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 1, q);
    eng.schedule_at(10, [] {});  // a live callback slot 0
    eng.arm(t.timer, 10);
    EXPECT_FALSE(eng.cancel(t.timer.id()));
    EXPECT_TRUE(t.timer.armed());
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
  }
}

TEST(EngineTimer, ReleaseDropsAKeyLeftInTheHeap) {
  Engine eng;
  std::vector<int> order;
  {
    Probe gone(order, 1);
    eng.arm(gone.timer, 10);
    eng.release(gone.timer);
  }
  // The next timer registered takes the released table slot.
  Probe next(order, 2);
  eng.arm(next.timer, 20);
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(eng.events_processed(), 1u);
}

TEST(EngineTimerDeathTest, ArmingAnArmedTimerAborts) {
  Engine eng;
  std::vector<int> order;
  Probe t(order, 1);
  eng.arm(t.timer, 10);
  EXPECT_DEATH(eng.arm(t.timer, 20), "armed");
}

TEST(EngineTimerDeathTest, ArmingIntoThePastAborts) {
  for (TimerQueue q : kQueues) {
    Engine eng;
    std::vector<int> order;
    Probe t(order, 1, q);
    eng.schedule_at(100, [&] { EXPECT_DEATH(eng.arm(t.timer, 50), "past"); });
    eng.run();
  }
}

// Randomized differential test against a reference model: an ordered set
// of (time, schedule sequence) keys.  Some callbacks schedule a child, and
// cancels target live, already-run and cancelled ids alike.
TEST(Engine, MatchesReferenceModel) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    Engine eng;
    std::uint64_t model_now = 0;
    std::uint64_t model_seq = 0;
    std::set<std::tuple<SimTime, std::uint64_t, int>> model;  // t, seq, tag
    std::unordered_map<int, EventId> id_of;
    std::unordered_map<int, std::tuple<SimTime, std::uint64_t, int>> key_of;
    std::vector<int> ran;
    std::vector<int> model_ran;
    int next_tag = 0;

    // Schedules in both; `at` is absolute time.
    std::function<void(SimTime, int)> schedule = [&](SimTime at, int tag) {
      const auto key = std::make_tuple(at, model_seq++, tag);
      model.insert(key);
      key_of[tag] = key;
      id_of[tag] = eng.schedule_at(at, [&, tag] {
        ran.push_back(tag);
        if (tag % 5 == 0) {  // spawn a child, possibly at the same time
          const int child = next_tag++;
          schedule(eng.now() + static_cast<SimTime>(tag % 3), child);
        }
      });
    };
    // Pops the model's next event (any child it spawned is already in).
    auto model_step = [&] {
      const auto key = *model.begin();
      model.erase(model.begin());
      model_now = std::get<0>(key);
      const int tag = std::get<2>(key);
      model_ran.push_back(tag);
      return tag;
    };

    for (int op = 0; op < 4000; ++op) {
      const unsigned r = rng() % 10;
      if (r < 5) {
        schedule(eng.now() + rng() % 64, next_tag++);
      } else if (r < 7 && next_tag > 0) {
        const int tag =
            static_cast<int>(rng() % static_cast<unsigned>(next_tag));
        const bool live = model.erase(key_of[tag]) > 0;
        EXPECT_EQ(eng.cancel(id_of[tag]), live) << "seed " << seed;
      } else if (r < 9) {
        const bool model_has = !model.empty();
        const std::size_t before = ran.size();
        EXPECT_EQ(eng.run_one(), model_has) << "seed " << seed;
        if (model_has) {
          ASSERT_EQ(ran.size(), before + 1);
          const int tag = model_step();
          // The engine already ran the callback, which may have spawned a
          // child through `schedule` (updating the model too).
          EXPECT_EQ(ran.back(), tag) << "seed " << seed;
        }
      } else {
        const SimTime limit = eng.now() + rng() % 32;
        const std::size_t before = ran.size();
        EXPECT_TRUE(eng.run_until(limit));
        // Children spawned during the run are in the model by now.
        std::vector<int> expect;
        while (!model.empty() && std::get<0>(*model.begin()) <= limit) {
          expect.push_back(model_step());
        }
        const std::vector<int> got(
            ran.begin() + static_cast<std::ptrdiff_t>(before), ran.end());
        EXPECT_EQ(got, expect) << "seed " << seed;
        model_now = limit;
      }
      ASSERT_EQ(eng.now(), model_now) << "seed " << seed;
      ASSERT_EQ(eng.events_pending(), model.size()) << "seed " << seed;
      ASSERT_EQ(eng.empty(), model.empty()) << "seed " << seed;
    }
    while (!model.empty()) {
      ASSERT_TRUE(eng.run_one());
      EXPECT_EQ(ran.back(), model_step()) << "seed " << seed;
    }
    EXPECT_FALSE(eng.run_one());
    EXPECT_EQ(ran, model_ran);
  }
}

// Timers of both queues mixed with callbacks, against the same model: a
// timer's arm draws its key exactly where schedule_at() would.
TEST(EngineTimer, MatchesReferenceModel) {
  constexpr int kTimers = 8;  // even: heap, odd: side list
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    Engine eng;
    std::uint64_t seq = 0;
    using Key = std::tuple<SimTime, std::uint64_t, int>;  // t, seq, tag
    std::set<Key> model;
    std::vector<Key> timer_key(kTimers);
    std::vector<int> ran;
    std::vector<int> model_ran;
    std::vector<std::unique_ptr<Probe>> timers;
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<Probe>(
          ran, -1 - i, i % 2 == 0 ? TimerQueue::kHeap : TimerQueue::kSide));
    }
    auto arm = [&](int i, SimTime at) {
      timer_key[static_cast<std::size_t>(i)] = {at, seq++, -1 - i};
      model.insert(timer_key[static_cast<std::size_t>(i)]);
      eng.arm(timers[static_cast<std::size_t>(i)]->timer, at);
    };
    for (int op = 0; op < 3000; ++op) {
      const unsigned r = rng() % 10;
      const int i = static_cast<int>(rng() % kTimers);
      Probe& t = *timers[static_cast<std::size_t>(i)];
      if (r < 3) {
        const int tag = op;
        const SimTime at = eng.now() + rng() % 16;
        model.insert({at, seq++, tag});
        eng.schedule_at(at, [&ran, tag] { ran.push_back(tag); });
      } else if (r < 6) {
        if (t.timer.armed()) {
          model.erase(timer_key[static_cast<std::size_t>(i)]);
          eng.disarm(t.timer);
        }
        arm(i, eng.now() + rng() % 16);
      } else if (r < 7) {
        if (t.timer.armed()) model.erase(timer_key[static_cast<std::size_t>(i)]);
        eng.disarm(t.timer);
      } else {
        const bool model_has = !model.empty();
        ASSERT_EQ(eng.run_one(), model_has) << "seed " << seed;
        if (model_has) {
          const Key k = *model.begin();
          model.erase(model.begin());
          model_ran.push_back(std::get<2>(k));
          ASSERT_EQ(eng.now(), std::get<0>(k)) << "seed " << seed;
        }
      }
      ASSERT_EQ(ran, model_ran) << "seed " << seed;
      ASSERT_EQ(eng.events_pending(), model.size()) << "seed " << seed;
    }
    while (eng.run_one()) {
      model_ran.push_back(std::get<2>(*model.begin()));
      model.erase(model.begin());
    }
    EXPECT_EQ(ran, model_ran) << "seed " << seed;
    EXPECT_TRUE(model.empty());
  }
}

// ---------------------------------------------------------------- lanes

TEST(EngineLanes, SameDrawInstantTieOrdersByLane) {
  // Lane 2's event runs first at t=10, yet the two events it and lane 1's
  // draw there for t=20 run in lane order.
  Engine eng;
  std::vector<int> order;
  eng.schedule_on(2, 10, [&] {
    EXPECT_EQ(eng.lane(), 2u);
    eng.schedule_at(20, [&] { order.push_back(2); });
  });
  eng.schedule_on(1, 10, [&] {
    eng.schedule_at(20, [&] { order.push_back(1); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.lane(), kHostLane);
}

TEST(EngineLanes, EarlierDrawWinsATieWhateverTheHostOrder) {
  // Lane 1 runs ahead to t=20 before lane 2's t=10 event runs, so its draw
  // for t=30 happens first on the host; lane 2's, drawn at t=10, still
  // runs first at t=30.
  Engine eng;
  eng.set_lookahead(15);
  std::vector<int> order;
  eng.schedule_on(1, 0, [&] {
    ASSERT_TRUE(eng.run_ahead(20));
    EXPECT_EQ(eng.now(), 20u);
    eng.schedule_at(30, [&] { order.push_back(1); });
  });
  eng.schedule_on(2, 10, [&] {
    eng.schedule_at(30, [&] { order.push_back(2); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(eng.now(), 30u);
}

// Which of `ahead`, tried in turn from lane 1's event at t=0, run_ahead()
// allows, with a lookahead of 100 and `setup`'s events pending.
std::vector<bool> run_ahead_allows(const std::function<void(Engine&)>& setup,
                                   std::vector<SimTime> ahead,
                                   SimTime until = kSimTimeNever) {
  Engine eng;
  eng.set_lookahead(100);
  std::vector<bool> allowed;
  eng.schedule_on(1, 0, [&] {
    for (const SimTime t : ahead) allowed.push_back(eng.run_ahead(t));
  });
  setup(eng);
  if (until == kSimTimeNever) {
    eng.run();
  } else {
    EXPECT_TRUE(eng.run_until(until));
  }
  return allowed;
}

TEST(EngineLanes, RunAheadStopsShortOfWhatCouldReachTheLane) {
  using Allowed = std::vector<bool>;
  // The lane's own next event.
  EXPECT_EQ(run_ahead_allows(
                [](Engine& e) { e.schedule_on(1, 110, [] {}); }, {109, 110}),
            (Allowed{true, false}));
  // Another node lane's next event plus the lookahead.
  EXPECT_EQ(run_ahead_allows(
                [](Engine& e) { e.schedule_on(2, 50, [] {}); }, {149, 150}),
            (Allowed{true, false}));
  // A host-lane event may touch any lane.
  EXPECT_EQ(run_ahead_allows(
                [](Engine& e) { e.schedule_at(40, [] {}); }, {39, 40}),
            (Allowed{true, false}));
  // run_until()'s limit.
  EXPECT_EQ(run_ahead_allows([](Engine&) {}, {60, 61}, 60),
            (Allowed{true, false}));
}

TEST(EngineLanesDeathTest, CrossLaneEventInsideTheLookaheadAborts) {
  Engine eng;
  eng.set_lookahead(100);
  eng.schedule_on(1, 0, [&] {
    eng.schedule_on(2, 100, [] {});  // exactly the lookahead: allowed
    EXPECT_DEATH(eng.schedule_on(2, 99, [] {}), "lookahead");
  });
  eng.run();
}

TEST(EngineLanes, OnDeliveredRunsOnTheSendersLaneAtArrival) {
  Engine eng;
  marcel::Config mc;
  mc.nodes = 2;
  mc.cpus_per_node = 1;
  marcel::Runtime rt(eng, mc);
  net::Fabric fabric(eng, 2, 1, net::CostModel{});
  std::vector<std::byte> target(64);
  const std::vector<std::byte> payload(64, std::byte{5});
  const net::RdmaHandle handle = fabric.nic(1).register_buffer(target);
  SimTime arrived = 0;
  SimTime delivered = 0;
  Lane delivered_on = kHostLane;
  fabric.nic(1).set_rx_notify([&] {
    EXPECT_EQ(eng.lane(), node_lane(1));
    arrived = eng.now();
  });
  rt.node(0).spawn([&] {
    fabric.nic(0).rdma_put(1, handle, payload, [&] {
      delivered_on = eng.lane();
      delivered = eng.now();
    });
  });
  eng.run();
  EXPECT_EQ(target, payload);
  EXPECT_GT(arrived, 0u);
  EXPECT_EQ(delivered, arrived);
  EXPECT_EQ(delivered_on, node_lane(0));
}

}  // namespace
}  // namespace pm2::sim
