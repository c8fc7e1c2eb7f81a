// Lock-contention profiler: site naming, contended accounting, sim-time
// wait/hold histograms, reset-on-enable, and idempotent metrics export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/spinlock.hpp"
#include "marcel/lock_profile.hpp"
#include "marcel/runtime.hpp"
#include "marcel/sync.hpp"
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
  Spinlock sl;
  sl.lock();
  sl.unlock();
  EXPECT_TRUE(lock_profile::snapshot().empty());
}

TEST(LockProfile, AnonymousSitesAggregateByClass) {
  ProfilerOn on;
  Spinlock a, b;
  a.lock();
  a.unlock();
  b.lock();
  b.unlock();
  const auto sites = lock_profile::snapshot();
  const auto* site = find_site(sites, "locks/pm2::Spinlock");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acq, 2u);
  EXPECT_EQ(site->contended, 0u);
  EXPECT_EQ(site->wait_us.total(), 0u);   // uncontended: no wait samples
  EXPECT_EQ(site->hold_us.total(), 2u);   // every release records a hold
}

TEST(LockProfile, RegisteredSiteUsesItsName) {
  ProfilerOn on;
  Spinlock sl;
  lock_profile::register_site(&sl, "test/locks/special");
  sl.lock();
  sl.unlock();
  const auto sites = lock_profile::snapshot();
  EXPECT_NE(find_site(sites, "test/locks/special"), nullptr);
  EXPECT_EQ(find_site(sites, "locks/pm2::Spinlock"), nullptr);
  lock_profile::unregister_site(&sl);
}

TEST(LockProfile, ReenableResetsStatistics) {
  {
    ProfilerOn on;
    Spinlock sl;
    sl.lock();
    sl.unlock();
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
  Spinlock sl;
  lock_profile::register_site(&sl, "test/locks/exp");
  sl.lock();
  sl.unlock();
  MetricsRegistry reg;
  lock_profile::export_to(reg);
  lock_profile::export_to(reg);  // assignment, not accumulation
  EXPECT_EQ(reg.value("test/locks/exp/acq"), 1.0);
  EXPECT_EQ(reg.value("test/locks/exp/contended"), 0.0);
  const Log2Histogram* hold = reg.find_histogram("test/locks/exp/hold_us");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->total(), 1u);
  lock_profile::unregister_site(&sl);
}

}  // namespace
}  // namespace pm2
