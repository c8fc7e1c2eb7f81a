// One cluster node: a set of virtual CPUs, thread management, and the hook
// points through which PIOMan gets scheduled (idle loop, context switches,
// timer ticks) — the triggers listed in §3.1 of the paper.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/simtime.hpp"
#include "common/slot_map.hpp"
#include "marcel/config.hpp"
#include "marcel/cpu.hpp"
#include "marcel/thread.hpp"

namespace pm2::marcel {

class Runtime;

class Node {
 public:
  /// Runs on a CPU's service fiber when the CPU has nothing else to do.
  /// May consume CPU time via Cpu::compute.  Return true to be polled again
  /// immediately, false when there is no work to poll for (the CPU halts).
  using IdleHook = std::function<bool(Cpu&)>;

  /// Engine-context hooks; must be cheap (no compute/suspend).
  using TickHook = std::function<void(Cpu&)>;
  using SwitchHook = std::function<void(Cpu&)>;

  Node(Runtime& rt, unsigned index, const Config& cfg, sim::Engine& engine);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  [[nodiscard]] unsigned cpu_count() const noexcept {
    return static_cast<unsigned>(cpus_.size());
  }
  [[nodiscard]] Cpu& cpu(unsigned i) noexcept { return *cpus_[i]; }

  /// Create a thread.  `cpu_hint` < 0 means round-robin placement.
  Thread& spawn(Thread::Fn fn, Priority prio = Priority::kNormal,
                std::string name = "thread", int cpu_hint = -1);

  /// Make a blocked thread runnable again; picks a CPU (idle preferred,
  /// affinity otherwise).  Realtime threads trigger hard preemption.
  void wake(Thread& t);

  /// An idle CPU on this node, or nullptr.  Used by PIOMan to place
  /// offloaded work (§2.2: "if a CPU is idle ... the event is processed").
  [[nodiscard]] Cpu* find_idle_cpu() noexcept;
  /// Count of CPUs currently idle or merely idle-polling.
  [[nodiscard]] unsigned idle_cpu_count() const noexcept;

  // Hook registration.  Ids are stable; registration and unregistration
  // are O(1) via a slot-reusing registry (a stale id is ignored).
  int add_idle_hook(IdleHook hook);
  void remove_idle_hook(int id);
  int add_tick_hook(TickHook hook);
  void remove_tick_hook(int id);
  int add_switch_hook(SwitchHook hook);
  void remove_switch_hook(int id);

  /// Run one round of idle hooks on `cpu` (service-fiber context).
  /// True if any hook reported progress / wants to keep polling.
  bool run_idle_hooks(Cpu& cpu);
  void run_tick_hooks(Cpu& cpu);
  void run_switch_hooks(Cpu& cpu);
  [[nodiscard]] bool has_idle_hooks() const noexcept {
    return !idle_hooks_.empty();
  }
  [[nodiscard]] bool has_tick_hooks() const noexcept {
    return !tick_hooks_.empty();
  }
  /// Registry slot high-water marks (live + reusable holes) — regression
  /// tests bound these to prove hook churn does not grow the tables.
  [[nodiscard]] std::size_t idle_hook_slots() const noexcept {
    return idle_hooks_.slot_count();
  }
  [[nodiscard]] std::size_t tick_hook_slots() const noexcept {
    return tick_hooks_.slot_count();
  }
  [[nodiscard]] std::size_t switch_hook_slots() const noexcept {
    return switch_hooks_.slot_count();
  }

  /// Kick every halted CPU of this node (used when new pollable work
  /// appears, so an idle core starts polling).
  void kick_idle_cpus();

  /// Wake one halted CPU (≠ origin) so it can steal surplus ready threads.
  void offer_steal(Cpu& origin);

  /// Wake every thread parked in Cpu::spin_wait() on this node (except on
  /// `except`): something it may be polling for just changed.
  void wake_spinners(const Cpu* except = nullptr);

  /// All threads ever spawned and not yet reaped (diagnostics).
  [[nodiscard]] std::size_t live_threads() const noexcept;

  /// Free the resources of finished threads.  Invalidates their pointers;
  /// callers must have joined them first.
  void reap_finished();

  /// Free one finished thread.  Unlike reap_finished() this leaves every
  /// other finished thread's handle valid, so a subsystem that spawns
  /// many short-lived threads (the RPC dispatcher) can recycle its own
  /// without invalidating handles the application still holds.
  void reap(Thread& t);

 private:
  friend class Cpu;

  Runtime& rt_;
  unsigned index_;
  const Config& cfg_;
  sim::Engine& engine_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<std::unique_ptr<Thread>> threads_;
  unsigned next_spawn_cpu_ = 0;
  unsigned spinners_ = 0;  // CPUs parked in spin_wait()

  SlotMap<IdleHook> idle_hooks_;
  SlotMap<TickHook> tick_hooks_;
  SlotMap<SwitchHook> switch_hooks_;
};

}  // namespace pm2::marcel
