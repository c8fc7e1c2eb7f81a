// Lockdep-style runtime checker: lock-order cycles, tasklet reentrancy,
// engine-context discipline, lost-wakeup detection — and the wiring into
// the simulated locks (nm::EngineLock as spin-class, marcel::Mutex).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "marcel/lockdep.hpp"
#include "marcel/runtime.hpp"
#include "marcel/sync.hpp"
#include "nmad/engine_lock.hpp"
#include "sim/engine.hpp"

namespace pm2::lockdep {
namespace {

/// Run each body as a thread of a one-node machine with `cpus` cores.
void run_threads(unsigned cpus, std::vector<std::function<void()>> bodies) {
  sim::Engine eng;
  marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = cpus;
  marcel::Runtime rt(eng, cfg);
  for (auto& body : bodies) rt.node(0).spawn(std::move(body));
  eng.run();
}

TEST(Lockdep, DisabledByDefaultAndFreeOfCharge) {
  ASSERT_FALSE(enabled());
  int a = 0;
  acquired(&a, "x");
  released(&a);
  check_block(true, "nothing");
  EXPECT_EQ(violation_count(), 0u);
}

TEST(Lockdep, DetectsAbBaInversion) {
  Session session;
  int a = 0, b = 0;
  acquired(&a, "A");
  acquired(&b, "B");
  released(&b);
  released(&a);
  EXPECT_EQ(violation_count(), 0u) << "A->B alone is fine";
  acquired(&b, "B");
  acquired(&a, "A");  // closes the cycle
  released(&a);
  released(&b);
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "lock-order");
}

TEST(Lockdep, ConsistentChainIsNoFalsePositive) {
  Session session;
  int a = 0, b = 0, c = 0;
  for (int i = 0; i < 10; ++i) {
    acquired(&a, "A");
    acquired(&b, "B");
    acquired(&c, "C");
    released(&c);
    released(&b);
    released(&a);
  }
  EXPECT_EQ(violation_count(), 0u) << report();
}

TEST(Lockdep, DetectsThreeLockCycle) {
  Session session;
  int a = 0, b = 0, c = 0;
  acquired(&a, "A");
  acquired(&b, "B");
  released(&b);
  released(&a);
  acquired(&b, "B");
  acquired(&c, "C");
  released(&c);
  released(&b);
  EXPECT_EQ(violation_count(), 0u);
  acquired(&c, "C");
  acquired(&a, "A");  // C -> A closes A -> B -> C -> A
  released(&a);
  released(&c);
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_NE(violations()[0].detail.find("cycle"), std::string::npos);
}

TEST(Lockdep, DetectsRecursiveAndUnbalanced) {
  Session session;
  int a = 0, b = 0;
  acquired(&a, "A");
  acquired(&a, "A");  // recursive
  released(&a);
  released(&b);  // never acquired
  ASSERT_EQ(violation_count(), 2u) << report();
  EXPECT_EQ(violations()[0].kind, "recursive-lock");
  EXPECT_EQ(violations()[1].kind, "unbalanced-release");
}

TEST(Lockdep, SpinlockHookIsWired) {
  Session session;
  nm::EngineLock a(kUs), b(kUs);
  std::size_t after_ab = 0;
  run_threads(1, {[&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
    after_ab = violation_count();
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  }});
  EXPECT_EQ(after_ab, 0u);
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "lock-order");
  EXPECT_NE(violations()[0].detail.find("nm::EngineLock"), std::string::npos);
}

TEST(Lockdep, HookUninstalledAfterDisable) {
  nm::EngineLock a(kUs), b(kUs), c(kUs);
  {
    Session session;
    run_threads(1, {[&] {
      a.lock();
      a.unlock();
    }});
  }
  reset();
  run_threads(1, {[&] {
    c.lock();
    b.lock();
    b.unlock();
    c.unlock();
    b.lock();
    c.lock();  // would be an inversion if the checker were still attached
    c.unlock();
    b.unlock();
  }});
  EXPECT_EQ(violation_count(), 0u);
}

TEST(Lockdep, TaskletReentryDetected) {
  Session session;
  int t = 0;
  tasklet_enter(&t, "poll");
  tasklet_enter(&t, "poll");  // same instance re-entered
  tasklet_exit(&t);
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "tasklet-reentry");
}

TEST(Lockdep, BlockingInsideTaskletDetected) {
  Session session;
  int t = 0;
  tasklet_enter(&t, "poll");
  note_suspension(/*blocking=*/true);
  tasklet_exit(&t);
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "tasklet-block");
}

TEST(Lockdep, SuspensionInsideEngineContextDetected) {
  Session session;
  engine_context_enter("tick-hooks");
  note_suspension(/*blocking=*/false);
  engine_context_exit();
  note_suspension(/*blocking=*/false);  // outside: fine
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "engine-context-suspend");
}

TEST(Lockdep, BlockingWhileHoldingSpinlockDetected) {
  // One core, so the blocked holder resumes where it disabled preemption.
  Session session;
  nm::EngineLock l(kUs);
  marcel::Mutex m;
  run_threads(1, {[&] {
                    m.lock();
                    marcel::this_thread::sleep(10 * kUs);
                    m.unlock();
                  },
                  [&] {
                    l.lock();
                    m.lock();  // contended: blocks while holding `l`
                    m.unlock();
                    l.unlock();
                  }});
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "block-holding-spinlock");
  EXPECT_NE(violations()[0].detail.find("nm::EngineLock"), std::string::npos);
}

TEST(Lockdep, CheckBlockFlagsLostWakeup) {
  Session session;
  check_block(/*condition_already_met=*/false, "flag");
  EXPECT_EQ(violation_count(), 0u);
  check_block(/*condition_already_met=*/true, "flag");
  ASSERT_EQ(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "lost-wakeup");
}

TEST(Lockdep, MarcelMutexIsWired) {
  // Two threads taking two mutexes in opposite order: the DES's canonical
  // schedule happens to serialise them (no deadlock *this* run) — exactly
  // the case the order graph exists for.
  Session session;
  sim::Engine eng;
  marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 2;
  marcel::Runtime rt(eng, cfg);
  marcel::Mutex a, b;
  rt.node(0).spawn([&] {
    a.lock();
    marcel::this_thread::compute(kUs);
    b.lock();
    b.unlock();
    a.unlock();
  });
  rt.node(0).spawn([&] {
    marcel::this_thread::compute(20 * kUs);  // after the first finished
    b.lock();
    marcel::this_thread::compute(kUs);
    a.lock();
    a.unlock();
    b.unlock();
  });
  eng.run();
  ASSERT_GE(violation_count(), 1u) << report();
  EXPECT_EQ(violations()[0].kind, "lock-order");
  EXPECT_NE(violations()[0].detail.find("marcel::Mutex"), std::string::npos);
}

TEST(Lockdep, MarcelMutexConsistentOrderIsClean) {
  Session session;
  sim::Engine eng;
  marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 2;
  marcel::Runtime rt(eng, cfg);
  marcel::Mutex a, b;
  for (int i = 0; i < 3; ++i) {
    rt.node(0).spawn([&] {
      a.lock();
      marcel::this_thread::compute(kUs);
      b.lock();
      marcel::this_thread::compute(kUs);
      b.unlock();
      a.unlock();
    });
  }
  eng.run();
  EXPECT_EQ(violation_count(), 0u) << report();
}

}  // namespace
}  // namespace pm2::lockdep
