#include "marcel/lock_profile.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pm2::lock_profile {
namespace {

struct SiteStats {
  std::uint64_t acq = 0;
  std::uint64_t contended = 0;
  Log2Histogram wait_us;
  Log2Histogram hold_us;

  void merge(const SiteStats& o) noexcept {
    acq += o.acq;
    contended += o.contended;
    wait_us.merge(o.wait_us);
    hold_us.merge(o.hold_us);
  }
};

// A contended acquisition in progress.  Several fibers can be pending on
// one lock at once, a fiber keeps its identity across core migrations,
// and two host threads each driving their own engine stay apart.
struct Waiter {
  std::thread::id host;
  const void* fiber;
  SimTime since;
};

// One record per lock instance, at a stable address (an unordered_map
// element) from its first registration or event until reset() or
// unregister_site() drops it.  Only the host thread driving the lock's
// engine touches its counters.
struct Site {
  std::string name;
  bool named = false;
  SiteStats st;
  bool held = false;
  SimTime hold_start = 0;
  std::vector<Waiter> waiters;
};

struct State {
  std::mutex mu;  // guards `sites` and the records' names
  std::unordered_map<const void*, Site> sites;
};

State& state() {
  static State s;
  return s;
}

std::atomic<int> g_enabled{0};
// Bumped whenever a record is dropped, which stales every cached pointer.
std::atomic<std::uint64_t> g_generation{1};

// Per-host-thread cache of lock -> record, so the hot path takes no mutex
// and does no map lookup.
struct CacheEntry {
  const void* lock = nullptr;
  Site* site = nullptr;
  std::uint64_t generation = 0;
};
constexpr std::size_t kCacheSize = 64;
thread_local CacheEntry t_cache[kCacheSize];

// Every instrumented lock runs on a virtual core (engine-context lock
// traffic included: it stands in for a fiber on a core).
SimTime stamp_now() noexcept {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT_MSG(cpu != nullptr,
                 "lock event outside a virtual core: no simulated clock");
  return cpu->engine().now();
}

// The record of `lock`, made (named after `cls`) on first use; with a null
// `cls`, nullptr when there is none.
Site* site_of(const void* lock, const char* cls) {
  const auto h = reinterpret_cast<std::uintptr_t>(lock);
  CacheEntry& e = t_cache[(h >> 4 ^ h >> 12) % kCacheSize];
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (e.lock == lock && e.generation == gen) return e.site;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  auto it = s.sites.find(lock);
  if (it == s.sites.end()) {
    if (cls == nullptr) return nullptr;
    it = s.sites.emplace(lock, Site{}).first;
    it->second.name = std::string("locks/") + cls;
  }
  e = CacheEntry{lock, &it->second, gen};
  return e.site;
}

// Called with mu held.
void reset_locked(State& s) {
  for (auto it = s.sites.begin(); it != s.sites.end();) {
    Site& site = it->second;
    if (site.named) {
      site.st = SiteStats{};
      site.held = false;
      site.waiters.clear();
      ++it;
    } else {
      it = s.sites.erase(it);
    }
  }
  g_generation.fetch_add(1, std::memory_order_release);
}

}  // namespace

void enable() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  if (g_enabled.fetch_add(1, std::memory_order_relaxed) == 0) {
    reset_locked(s);
  }
}

void disable() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  g_enabled.fetch_sub(1, std::memory_order_relaxed);
}

bool enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed) > 0;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  reset_locked(s);
}

void register_site(const void* lock, std::string name) {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  Site& site = s.sites[lock];
  site.name = std::move(name);
  site.named = true;
}

void unregister_site(const void* lock) {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.sites.erase(lock) != 0) {
    g_generation.fetch_add(1, std::memory_order_release);
  }
}

void note_contended(const void* lock, const char* lock_class) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  Site& site = *site_of(lock, lock_class);
  const std::thread::id host = std::this_thread::get_id();
  const void* fiber = sim::Fiber::current();
  for (Waiter& w : site.waiters) {
    if (w.host == host && w.fiber == fiber) {
      w.since = now;
      return;
    }
  }
  site.waiters.push_back(Waiter{host, fiber, now});
}

void note_acquired(const void* lock, const char* lock_class, bool contended) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  Site& site = *site_of(lock, lock_class);
  ++site.st.acq;
  if (contended) ++site.st.contended;
  if (!site.waiters.empty()) {
    const std::thread::id host = std::this_thread::get_id();
    const void* fiber = sim::Fiber::current();
    for (std::size_t i = 0; i < site.waiters.size(); ++i) {
      const Waiter& w = site.waiters[i];
      if (w.host != host || w.fiber != fiber) continue;
      site.st.wait_us.add((now - w.since) / 1000);
      site.waiters[i] = site.waiters.back();
      site.waiters.pop_back();
      break;
    }
  }
  site.held = true;
  site.hold_start = now;
}

void note_released(const void* lock) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  Site* site = site_of(lock, nullptr);
  if (site == nullptr || !site->held) return;
  site->held = false;
  site->st.hold_us.add((now - site->hold_start) / 1000);
}

void note_idle(const void* lock, const char* lock_class, std::uint64_t n) {
  if (!enabled() || n == 0) return;
  Site& site = *site_of(lock, lock_class);
  PM2_ASSERT(!site.held);
  site.st.acq += n;
  site.st.hold_us.add(0, n);
}

std::vector<SiteSnapshot> snapshot() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  std::map<std::string, SiteStats> by_name;
  for (const auto& [lock, site] : s.sites) {
    // A lock that was only ever contended has no record yet as far as
    // the profile goes: it appears with its first acquisition.
    if (!site.named && site.st.acq == 0) continue;
    by_name[site.name].merge(site.st);
  }
  std::vector<SiteSnapshot> out;
  out.reserve(by_name.size());
  for (auto& [name, st] : by_name) {
    SiteSnapshot snap;
    snap.name = name;
    snap.acq = st.acq;
    snap.contended = st.contended;
    snap.wait_us = st.wait_us;
    snap.hold_us = st.hold_us;
    out.push_back(std::move(snap));
  }
  return out;
}

void export_to(MetricsRegistry& registry) {
  for (const SiteSnapshot& site : snapshot()) {
    registry.counter(site.name + "/acq") = site.acq;
    registry.counter(site.name + "/contended") = site.contended;
    registry.histogram(site.name + "/wait_us") = site.wait_us;
    registry.histogram(site.name + "/hold_us") = site.hold_us;
  }
}

}  // namespace pm2::lock_profile
