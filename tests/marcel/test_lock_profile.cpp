// Lock-contention profiler: site naming, contended accounting, sim-time
// wait/hold histograms, reset-on-enable, and idempotent metrics export,
// all on simulated locks (marcel::Mutex, nm::EngineLock) on a virtual core.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "marcel/lock_profile.hpp"
#include "marcel/runtime.hpp"
#include "marcel/sync.hpp"
#include "nmad/engine_lock.hpp"
#include "sim/engine.hpp"

namespace pm2 {
namespace {

struct Machine {
  sim::Engine eng;
  marcel::Runtime rt;
  explicit Machine(unsigned cpus) : rt(eng, make(cpus)) {}
  static marcel::Config make(unsigned cpus) {
    marcel::Config cfg;
    cfg.nodes = 1;
    cfg.cpus_per_node = cpus;
    return cfg;
  }
  marcel::Node& node() { return rt.node(0); }
};

/// Lock and release `lock` once from a thread of a one-core machine.
template <typename Lock>
void lock_once(Lock& lock) {
  Machine m(1);
  m.node().spawn([&] {
    lock.lock();
    marcel::this_thread::compute(kUs);
    lock.unlock();
  });
  m.eng.run();
}

/// RAII enable so a failing assertion cannot leak the profiler into other
/// tests.
struct ProfilerOn {
  ProfilerOn() { lock_profile::enable(); }
  ~ProfilerOn() { lock_profile::disable(); }
};

const lock_profile::SiteSnapshot* find_site(
    const std::vector<lock_profile::SiteSnapshot>& sites,
    const std::string& name) {
  for (const auto& s : sites) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(LockProfile, DisabledRecordsNothing) {
  ASSERT_FALSE(lock_profile::enabled());
  marcel::Mutex mu;
  nm::EngineLock el(kUs);
  lock_once(mu);
  lock_once(el);
  EXPECT_TRUE(lock_profile::snapshot().empty());
}

TEST(LockProfile, AnonymousSitesAggregateByClass) {
  ProfilerOn on;
  nm::EngineLock a(kUs), b(kUs);
  lock_once(a);
  lock_once(b);
  const auto sites = lock_profile::snapshot();
  const auto* site = find_site(sites, "locks/nm::EngineLock");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acq, 2u);
  EXPECT_EQ(site->contended, 0u);
  EXPECT_EQ(site->wait_us.total(), 0u);   // uncontended: no wait samples
  EXPECT_EQ(site->hold_us.total(), 2u);   // every release records a hold
}

TEST(LockProfile, RegisteredSiteUsesItsName) {
  ProfilerOn on;
  marcel::Mutex mu;
  lock_profile::register_site(&mu, "test/locks/special");
  lock_once(mu);
  const auto sites = lock_profile::snapshot();
  EXPECT_NE(find_site(sites, "test/locks/special"), nullptr);
  EXPECT_EQ(find_site(sites, "locks/marcel::Mutex"), nullptr);
  lock_profile::unregister_site(&mu);
}

TEST(LockProfile, ReenableResetsStatistics) {
  {
    ProfilerOn on;
    marcel::Mutex mu;
    lock_once(mu);
    EXPECT_FALSE(lock_profile::snapshot().empty());
  }
  ProfilerOn on;  // count went 0 -> 1 again: stats must be fresh
  EXPECT_TRUE(lock_profile::snapshot().empty());
}

TEST(LockProfile, MutexContentionMeasuredInSimTime) {
  ProfilerOn on;
  Machine m(2);
  marcel::Mutex mu;
  lock_profile::register_site(&mu, "test/locks/mu");
  constexpr SimDuration kHold = 100 * kUs;
  m.node().spawn([&] {
    mu.lock();
    marcel::this_thread::compute(kHold);
    mu.unlock();
  });
  m.node().spawn([&] {
    marcel::this_thread::compute(10 * kUs);  // arrive while held
    mu.lock();
    mu.unlock();
  });
  m.eng.run();
  const auto sites = lock_profile::snapshot();
  const auto* site = find_site(sites, "test/locks/mu");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acq, 2u);
  EXPECT_EQ(site->contended, 1u);
  // Wait samples come from contended acquisitions only.
  ASSERT_EQ(site->wait_us.total(), 1u);
  // The second thread waited roughly kHold - 10us of virtual time; the
  // log2 histogram puts the ~90us sample well above 32us.
  EXPECT_GE(site->wait_us.percentile(50), 32.0);
  EXPECT_EQ(site->hold_us.total(), 2u);
  // The first hold spans the whole compute: >= 64us bucket-wise.
  EXPECT_GE(site->hold_us.percentile(99), 64.0);
  lock_profile::unregister_site(&mu);
}

TEST(LockProfile, ExportIsIdempotent) {
  ProfilerOn on;
  nm::EngineLock el(kUs);
  lock_profile::register_site(&el, "test/locks/exp");
  lock_once(el);
  MetricsRegistry reg;
  lock_profile::export_to(reg);
  lock_profile::export_to(reg);  // assignment, not accumulation
  EXPECT_EQ(reg.value("test/locks/exp/acq"), 1.0);
  EXPECT_EQ(reg.value("test/locks/exp/contended"), 0.0);
  const Log2Histogram* hold = reg.find_histogram("test/locks/exp/hold_us");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->total(), 1u);
  lock_profile::unregister_site(&el);
}

}  // namespace
}  // namespace pm2
