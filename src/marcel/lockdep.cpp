#include "marcel/lockdep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/fiber.hpp"

namespace pm2::lockdep {
namespace {

// An execution context is a (host thread, fiber) pair: simulated threads,
// service fibers and LWPs are distinguished by their fiber even though
// they share one host thread (marcel locks are held across suspensions);
// engine context is the null fiber; and two host threads each driving
// their own engine stay apart.
using CtxKey = std::pair<std::thread::id, const void*>;

CtxKey current_ctx() {
  return {std::this_thread::get_id(),
          static_cast<const void*>(sim::Fiber::current())};
}

struct LockNode {
  const char* cls = "?";
  bool spin = false;               // spin-class: may not be held across a block
  std::set<const void*> out;       // order edges: this was held when out[i]
                                   // was acquired
};

struct HeldLock {
  const void* lock;
  const char* cls;
  bool spin;
};

struct Ctx {
  std::vector<HeldLock> held;
  int tasklet_depth = 0;
};

struct State {
  std::mutex mu;
  bool fail_fast = false;
  std::unordered_map<const void*, LockNode> locks;
  std::map<CtxKey, Ctx> contexts;
  std::unordered_map<const void*, const char*> running_tasklets;
  int engine_depth = 0;            // engine-context hook nesting (DES thread)
  const char* engine_what = "";
  std::vector<Violation> viols;
  std::set<std::string> seen;      // dedup: report each distinct finding once
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};

constexpr std::size_t kMaxViolations = 128;

// Must be called with state().mu held.
void record_violation(State& s, const char* kind, std::string detail) {
  if (!s.seen.insert(detail).second) return;  // already reported
  std::fprintf(stderr, "pm2-lockdep: [%s] %s\n", kind, detail.c_str());
  if (s.fail_fast) std::abort();
  if (s.viols.size() < kMaxViolations) {
    s.viols.push_back({kind, std::move(detail)});
  }
}

std::string lock_str(const State& s, const void* lock) {
  char buf[96];
  const auto it = s.locks.find(lock);
  std::snprintf(buf, sizeof buf, "%p(%s)", lock,
                it != s.locks.end() ? it->second.cls : "?");
  return buf;
}

// Depth-first search for a path `from` ⇝ `to` over the order graph; fills
// `path` (from..to inclusive) when found.  Must be called with mu held.
bool find_path(const State& s, const void* from, const void* to,
               std::vector<const void*>& path) {
  std::set<const void*> visited;
  std::vector<const void*> stack{from};
  std::map<const void*, const void*> via;
  visited.insert(from);
  while (!stack.empty()) {
    const void* n = stack.back();
    stack.pop_back();
    if (n == to) {
      for (const void* p = to; p != from; p = via[p]) path.push_back(p);
      path.push_back(from);
      std::reverse(path.begin(), path.end());
      return true;
    }
    const auto it = s.locks.find(n);
    if (it == s.locks.end()) continue;
    for (const void* next : it->second.out) {
      if (visited.insert(next).second) {
        via[next] = n;
        stack.push_back(next);
      }
    }
  }
  return false;
}

// Add the edge held→acquiring and flag the cycle it would close.  Must be
// called with mu held.
void add_edge(State& s, const HeldLock& held, const void* lock) {
  LockNode& from = s.locks[held.lock];
  if (!from.out.insert(lock).second) return;  // known edge: already checked
  std::vector<const void*> path;
  if (find_path(s, lock, held.lock, path)) {
    std::string detail = "acquiring " + lock_str(s, lock) + " while holding " +
                         lock_str(s, held.lock) +
                         " closes the order cycle: ";
    for (const void* p : path) {
      detail += lock_str(s, p);
      detail += " -> ";
    }
    detail += lock_str(s, lock);
    record_violation(s, "lock-order", std::move(detail));
  }
}

void do_acquire(const void* lock, const char* cls, bool spin) {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  LockNode& n = s.locks[lock];
  n.cls = cls;
  n.spin = spin;
  Ctx& ctx = s.contexts[current_ctx()];
  for (const HeldLock& h : ctx.held) {
    if (h.lock == lock) {
      record_violation(s, "recursive-lock",
                       "context re-acquires " + lock_str(s, lock) +
                           " it already holds");
      return;
    }
    add_edge(s, h, lock);
  }
  ctx.held.push_back({lock, cls, spin});
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_fail_fast(bool on) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  s.fail_fast = on;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  s.locks.clear();
  s.contexts.clear();
  s.running_tasklets.clear();
  s.engine_depth = 0;
  s.viols.clear();
  s.seen.clear();
}

void acquired(const void* lock, const char* lock_class) {
  if (!enabled()) return;
  do_acquire(lock, lock_class, /*spin=*/false);
}

void spin_acquired(const void* lock, const char* lock_class) {
  if (!enabled()) return;
  do_acquire(lock, lock_class, /*spin=*/true);
}

void released(const void* lock) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  Ctx& ctx = s.contexts[current_ctx()];
  for (auto it = ctx.held.rbegin(); it != ctx.held.rend(); ++it) {
    if (it->lock == lock) {
      ctx.held.erase(std::next(it).base());
      return;
    }
  }
  record_violation(s, "unbalanced-release",
                   "context releases " + lock_str(s, lock) +
                       " it does not hold");
}

void tasklet_enter(const void* tasklet, const char* name) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  const auto [it, inserted] = s.running_tasklets.emplace(tasklet, name);
  if (!inserted) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "tasklet %p(%s) entered while already running "
                  "(non-reentrancy contract of §2.1 broken)",
                  tasklet, name);
    record_violation(s, "tasklet-reentry", buf);
    return;
  }
  s.contexts[current_ctx()].tasklet_depth++;
}

void tasklet_exit(const void* tasklet) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.running_tasklets.erase(tasklet) > 0) {
    Ctx& ctx = s.contexts[current_ctx()];
    if (ctx.tasklet_depth > 0) --ctx.tasklet_depth;
  }
}

void engine_context_enter(const char* what) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  ++s.engine_depth;
  s.engine_what = what;
}

void engine_context_exit() {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.engine_depth > 0) --s.engine_depth;
}

void note_suspension(bool blocking) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.engine_depth > 0) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "fiber suspension inside engine-context hook batch '%s' "
                  "(tick/switch hooks must stay cheap and non-suspending)",
                  s.engine_what);
    record_violation(s, "engine-context-suspend", buf);
  }
  if (!blocking) return;
  Ctx& ctx = s.contexts[current_ctx()];
  if (ctx.tasklet_depth > 0) {
    record_violation(s, "tasklet-block",
                     "fiber blocked inside a tasklet body (tasklets may "
                     "compute but never wait)");
  }
  for (const HeldLock& h : ctx.held) {
    if (h.spin) {
      record_violation(
          s, "block-holding-spinlock",
          "fiber blocked while holding spin-class lock " +
              lock_str(s, h.lock) +
              " (a waker spinning on it would livelock the host)");
    }
  }
}

void check_block(bool condition_already_met, const char* what) {
  if (!enabled() || !condition_already_met) return;
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "lost wakeup: fiber blocks on '%s' although the awaited "
                "condition is already observable — nothing will wake it",
                what);
  record_violation(s, "lost-wakeup", buf);
}

std::size_t violation_count() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  return s.viols.size();
}

std::vector<Violation> violations() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  return s.viols;
}

std::string report() {
  State& s = state();
  std::lock_guard<std::mutex> g(s.mu);
  std::string out;
  for (const Violation& v : s.viols) {
    out += "[" + v.kind + "] " + v.detail + "\n";
  }
  return out;
}

}  // namespace pm2::lockdep
