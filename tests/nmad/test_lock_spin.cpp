// Contended nm::EngineLock acquires spin in 50 ns granules.  A granule
// that ends with the lock still held re-arms the next one in engine
// context instead of resuming the spinning fiber; the virtual-time outcome
// must be that of the stepped loop `while (held) compute(50)` exactly.
//
// Every scenario has one holder on cpu 0 that takes the lock at t=0 and
// spinners that start spinning at t=1000 ns, so their granule boundaries
// fall on 1000 + 50k.  Acquisition times and CPU times are worked out by
// hand from that grid.  Granule ends run from the engine's side list, not
// its heap, and compute chunks that run ahead inline take no event, so the
// stepped loop's event count is events_processed() plus side_processed()
// plus the chunks inlined.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "marcel/cpu.hpp"
#include "marcel/lock_profile.hpp"
#include "marcel/runtime.hpp"
#include "nmad/engine_lock.hpp"
#include "sim/engine.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::nm {
namespace {

using marcel::this_thread::compute;

constexpr SimDuration kGranule = 50;
constexpr SimTime kSpinStart = 1000;

marcel::Config config(unsigned cpus) {
  marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = cpus;
  cfg.ctx_switch_cost = 0;
  cfg.wakeup_cost = 0;
  return cfg;
}

class Rig {
 public:
  explicit Rig(const marcel::Config& cfg) : rt_(eng_, cfg) {
    lock_profile::enable();
    lock_profile::register_site(&lock_, "test/engine");
  }
  ~Rig() {
    lock_profile::unregister_site(&lock_);
    lock_profile::disable();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  sim::Engine& eng() { return eng_; }
  marcel::Node& node() { return rt_.node(0); }

  /// Takes the lock at t=0 and releases it after computing `chunks` in
  /// turn (several chunks move the schedule point of the releasing event).
  marcel::Thread& holder(std::initializer_list<SimDuration> chunks) {
    std::vector<SimDuration> c(chunks);
    return node().spawn([this, c] {
      lock_.lock();
      for (SimDuration d : c) compute(d);
      lock_.unlock();
    }, marcel::Priority::kNormal, "holder", 0);
  }

  /// Computes until kSpinStart, then acquires (recording when) and holds
  /// the lock for `hold`.
  marcel::Thread& spinner(unsigned cpu, SimTime* acquired,
                          SimDuration hold = 0) {
    return node().spawn([this, acquired, hold] {
      compute(kSpinStart);
      lock_.lock();
      *acquired = eng_.now();
      compute(hold);
      lock_.unlock();
    }, marcel::Priority::kNormal, "spinner", static_cast<int>(cpu));
  }

  void run() { eng_.run(); }

  /// Events the stepped loop would have dispatched.
  [[nodiscard]] std::uint64_t steps() {
    std::uint64_t inlined = 0;
    for (unsigned i = 0; i < node().cpu_count(); ++i) {
      inlined += node().cpu(i).stats().chunks_inlined;
    }
    return eng_.events_processed() + eng_.side_processed() + inlined;
  }

  [[nodiscard]] lock_profile::SiteSnapshot site() const {
    for (auto& s : lock_profile::snapshot()) {
      if (s.name == "test/engine") return s;
    }
    return {};
  }

  [[nodiscard]] std::uint64_t spin_granules() {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < node().cpu_count(); ++i) {
      n += node().cpu(i).stats().spin_granules;
    }
    return n;
  }

 private:
  sim::Engine eng_;
  marcel::Runtime rt_;
  EngineLock lock_{kGranule};
};

/// The lock-wait histogram holds exactly these waits (ns, from the start
/// of the spin to the acquisition).
void expect_waits(const lock_profile::SiteSnapshot& s,
                  std::initializer_list<SimDuration> waits_ns) {
  Log2Histogram want;
  for (SimDuration w : waits_ns) want.add(w / 1000);
  ASSERT_EQ(s.wait_us.total(), want.total());
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(s.wait_us.bucket_count(i), want.bucket_count(i)) << i;
  }
}

TEST(LockSpin, ReleaseBetweenBoundariesIsSeenOnTheNextOne) {
  Rig rig(config(2));
  SimTime acq = 0;
  rig.holder({5010});
  marcel::Thread& s = rig.spinner(1, &acq);
  rig.run();
  EXPECT_EQ(acq, 5050u);  // first boundary 1000 + 50k after 5010
  EXPECT_EQ(s.cpu_time(), 5050u);
  const auto site = rig.site();
  EXPECT_EQ(site.acq, 2u);
  EXPECT_EQ(site.contended, 1u);
  expect_waits(site, {5050 - kSpinStart});
  EXPECT_EQ(rig.steps(), 91u);
  // 81 granules end at 1050..5050; all but the last re-arm in engine
  // context, and only the last resumes the spinner.
  EXPECT_EQ(rig.spin_granules(), 80u);
}

TEST(LockSpin, ReleaseOnABoundaryScheduledEarlierWinsTheTie) {
  // The holder's releasing chunk was scheduled at t=0, before the
  // spinner's granule ending at 5000 (scheduled at 4950): it runs first,
  // and that granule already finds the lock free.
  Rig rig(config(2));
  SimTime acq = 0;
  rig.holder({5000});
  marcel::Thread& s = rig.spinner(1, &acq);
  rig.run();
  EXPECT_EQ(acq, 5000u);
  EXPECT_EQ(s.cpu_time(), 5000u);
  expect_waits(rig.site(), {5000 - kSpinStart});
  EXPECT_EQ(rig.steps(), 90u);
  EXPECT_EQ(rig.spin_granules(), 79u);
}

TEST(LockSpin, ReleaseOnABoundaryScheduledWithinTheGranuleLosesTheTie) {
  // The releasing chunk (4970 -> 5000) was scheduled after the spinner's
  // granule ending at 5000: that granule still sees the lock held, and
  // the spinner acquires one granule later.
  Rig rig(config(2));
  SimTime acq = 0;
  rig.holder({4970, 30});
  marcel::Thread& s = rig.spinner(1, &acq);
  rig.run();
  EXPECT_EQ(acq, 5050u);
  EXPECT_EQ(s.cpu_time(), 5050u);
  expect_waits(rig.site(), {5050 - kSpinStart});
  EXPECT_EQ(rig.steps(), 92u);
  EXPECT_EQ(rig.spin_granules(), 80u);
}

TEST(LockSpin, SamePhaseSpinnersKeepTheirOrder) {
  // Both spinners' granules end together; the first one spawned checks
  // first at every boundary, so it wins at 5050.  The second takes the
  // lock on its first boundary after the first releases (5050 + 120).
  Rig rig(config(3));
  SimTime acq_a = 0;
  SimTime acq_b = 0;
  rig.holder({5010});
  marcel::Thread& a = rig.spinner(1, &acq_a, 120);
  marcel::Thread& b = rig.spinner(2, &acq_b);
  rig.run();
  EXPECT_EQ(acq_a, 5050u);
  EXPECT_EQ(acq_b, 5200u);
  EXPECT_EQ(a.cpu_time(), 5050u + 120);
  EXPECT_EQ(b.cpu_time(), 5200u);
  const auto site = rig.site();
  EXPECT_EQ(site.acq, 3u);
  EXPECT_EQ(site.contended, 2u);
  expect_waits(site, {5050 - kSpinStart, 5200 - kSpinStart});
  EXPECT_EQ(rig.steps(), 181u);
  EXPECT_EQ(rig.spin_granules(), 80u + 83u);
}

TEST(LockSpin, ReleaseOnTheSecondSpinnersBoundaryAfterOneHeldGranule) {
  // Same-phase spinners again: the first acquires on the boundary 5050
  // and holds for one granule.  Its releasing chunk (scheduled at 5050)
  // and the second's granule ending at 5100 (re-armed at 5050, after it)
  // tie, and the release wins: the second acquires at 5100.  Waking the
  // second from unlock() would need that scheduling history.
  Rig rig(config(3));
  SimTime acq_a = 0;
  SimTime acq_b = 0;
  rig.holder({5010});
  marcel::Thread& a = rig.spinner(1, &acq_a, kGranule);
  marcel::Thread& b = rig.spinner(2, &acq_b);
  rig.run();
  EXPECT_EQ(acq_a, 5050u);
  EXPECT_EQ(acq_b, 5100u);
  EXPECT_EQ(a.cpu_time(), 5050u + kGranule);
  EXPECT_EQ(b.cpu_time(), 5100u);
  const auto site = rig.site();
  EXPECT_EQ(site.acq, 3u);
  EXPECT_EQ(site.contended, 2u);
  expect_waits(site, {5050 - kSpinStart, 5100 - kSpinStart});
  EXPECT_EQ(rig.steps(), 179u);
  // The first re-arms granules 1050..5000, the second 1050..5050.
  EXPECT_EQ(rig.spin_granules(), 80u + 81);
}

TEST(LockSpin, RealtimeWakeCutsAGranuleMidway) {
  // A realtime thread queued on the spinner's core at 2025 (mid-granule)
  // preempts it at once.  The spinner resumes at 2325, finishes its cut
  // granule at 2350 and spins on the shifted grid 2350 + 50k.
  Rig rig(config(2));
  SimTime acq = 0;
  SimTime rt_done = 0;
  rig.holder({5010});
  marcel::Thread& s = rig.spinner(1, &acq);
  rig.eng().schedule_at(2025, [&] {
    rig.node().spawn([&] {
      compute(300);
      rt_done = rig.eng().now();
    }, marcel::Priority::kRealtime, "rt", 1);
  });
  rig.run();
  EXPECT_EQ(rt_done, 2325u);
  EXPECT_EQ(acq, 5050u);
  // 1000 before the spin, 1025 spun before the cut, 25 to finish the cut
  // granule, then 2350 -> 5050.
  EXPECT_EQ(s.cpu_time(), 1000u + 1025 + 25 + 2700);
  expect_waits(rig.site(), {5050 - kSpinStart});
  EXPECT_EQ(rig.steps(), 92u);
  // Granules 1050..2000, then the one finishing the cut granule at 2350,
  // then 2400..5000 (the one ending at 5050 resumes the spinner).
  EXPECT_EQ(rig.spin_granules(), 20u + 1 + 53);
}

TEST(LockSpin, QuantumExpiryPreemptsAtTheNextBoundary) {
  // Quantum and tick 2000 ns, with a second thread queued behind the
  // spinner.  The tick at 2000 (scheduled at t=0) runs before the granule
  // ending at 2000, which then yields the core; the other thread runs
  // 2000 -> 2300 and the spinner continues on the grid 2300 + 50k.
  marcel::Config cfg = config(2);
  cfg.quantum = 2000;
  cfg.timer_tick = 2000;
  Rig rig(cfg);
  SimTime acq = 0;
  SimTime other_done = 0;
  rig.holder({5010});
  marcel::Thread& s = rig.spinner(1, &acq);
  marcel::Thread& other = rig.node().spawn([&] {
    compute(300);
    other_done = rig.eng().now();
  }, marcel::Priority::kNormal, "other", 1);
  rig.run();
  EXPECT_EQ(other_done, 2300u);
  EXPECT_EQ(acq, 5050u);
  EXPECT_EQ(s.cpu_time(), 1000u + 1000 + 2750);
  EXPECT_EQ(other.cpu_time(), 300u);
  expect_waits(rig.site(), {5050 - kSpinStart});
  EXPECT_EQ(rig.steps(), 96u);
  // Granules 1050..1950, then 2350..5000; the ones ending at 2000 (the
  // preemption) and 5050 resume the spinner.
  EXPECT_EQ(rig.spin_granules(), 19u + 54);
}

TEST(LockSpin, FuzzedRunsStillStep) {
  Rig rig(config(2));
  sim::ScheduleFuzzer fuzzer(7);
  rig.eng().set_fuzzer(&fuzzer);
  SimTime acq = 0;
  rig.holder({5010});
  rig.spinner(1, &acq);
  rig.run();
  rig.eng().set_fuzzer(nullptr);
  EXPECT_GE(acq, 5010u);
  EXPECT_EQ(rig.site().contended, 1u);
  EXPECT_EQ(rig.spin_granules(), 0u) << "every fuzzed granule resumes";
}

}  // namespace
}  // namespace pm2::nm
