#include "marcel/lock_profile.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

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

struct Site {
  std::string name;
  bool named = false;
  SiteStats st;
  bool held = false;
  SimTime hold_start = 0;
};

// Waiters are keyed by (lock, host thread, fiber): several fibers can be
// pending on one lock at once, a fiber keeps its identity across core
// migrations, and two host threads each driving their own engine stay
// apart.
using WaitKey = std::tuple<const void*, std::thread::id, const void*>;

struct State {
  std::mutex mu;
  std::unordered_map<const void*, Site> sites;
  std::map<WaitKey, SimTime> pending;
};

State& state() {
  static State s;
  return s;
}

std::atomic<int> g_enabled{0};

// Every instrumented lock runs on a virtual core (engine-context lock
// traffic included: it stands in for a fiber on a core).
SimTime stamp_now() noexcept {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT_MSG(cpu != nullptr,
                 "lock event outside a virtual core: no simulated clock");
  return cpu->engine().now();
}

WaitKey wait_key(const void* lock) noexcept {
  return {lock, std::this_thread::get_id(), sim::Fiber::current()};
}

// Called with mu held.
Site& site_for(State& s, const void* lock, const char* cls) {
  Site& site = s.sites[lock];
  if (site.name.empty()) site.name = std::string("locks/") + cls;
  return site;
}

void reset_locked(State& s) {
  s.pending.clear();
  for (auto it = s.sites.begin(); it != s.sites.end();) {
    if (it->second.named) {
      it->second.st = SiteStats{};
      it->second.held = false;
      ++it;
    } else {
      it = s.sites.erase(it);
    }
  }
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
  s.sites.erase(lock);
}

void note_contended(const void* lock, const char* /*lock_class*/) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  s.pending[wait_key(lock)] = now;
}

void note_acquired(const void* lock, const char* lock_class, bool contended) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  Site& site = site_for(s, lock, lock_class);
  ++site.st.acq;
  if (contended) ++site.st.contended;
  if (const auto it = s.pending.find(wait_key(lock));
      it != s.pending.end()) {
    site.st.wait_us.add((now - it->second) / 1000);
    s.pending.erase(it);
  }
  site.held = true;
  site.hold_start = now;
}

void note_released(const void* lock) {
  if (!enabled()) return;
  const SimTime now = stamp_now();
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  const auto it = s.sites.find(lock);
  if (it == s.sites.end() || !it->second.held) return;
  Site& site = it->second;
  site.held = false;
  site.st.hold_us.add((now - site.hold_start) / 1000);
}

std::vector<SiteSnapshot> snapshot() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  std::map<std::string, SiteStats> by_name;
  for (const auto& [lock, site] : s.sites) {
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
