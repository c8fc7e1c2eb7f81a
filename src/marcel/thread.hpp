// Simulated threads (Marcel's "vthreads").
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/intrusive_list.hpp"
#include "common/simtime.hpp"
#include "sim/fiber.hpp"

namespace pm2::marcel {

class Cpu;
class Node;

/// Scheduling classes, low to high.  kRealtime is used by PIOMan's blocking
/// LWPs: waking one preempts whatever the target CPU is doing.
enum class Priority : std::uint8_t { kIdle = 0, kNormal, kHigh, kRealtime };
inline constexpr unsigned kNumPriorities = 4;

enum class ThreadState : std::uint8_t {
  kReady,     // on a runqueue
  kRunning,   // occupying a CPU
  kBlocked,   // waiting (mutex/cond/join/sleep/comm)
  kFinished,
};

class Thread {
 public:
  using Fn = std::function<void()>;

  Thread(Node& node, Fn fn, Priority prio, std::string name,
         std::size_t stack_bytes);

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// Block the calling thread until this one finishes.  Must be called from
  /// a marcel thread on the same node’s runtime.
  void join();

  [[nodiscard]] bool finished() const noexcept {
    return state_ == ThreadState::kFinished;
  }
  [[nodiscard]] ThreadState state() const noexcept { return state_; }
  [[nodiscard]] Priority priority() const noexcept { return prio_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Node& node() noexcept { return node_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Total CPU time this thread has consumed (compute + protocol work).
  [[nodiscard]] SimDuration cpu_time() const noexcept { return cpu_time_; }

  // --- internal (scheduler) state; do not touch from applications ---
  ListHook rq_hook;    // runqueue linkage
  ListHook wait_hook;  // waiter-list linkage (mutex/cond/semaphore)

 private:
  friend class Cpu;
  friend class Node;

  static std::uint64_t next_id() noexcept;

  Node& node_;
  Fn fn_;
  Priority prio_;
  std::string name_;
  std::uint64_t id_;
  sim::Fiber fiber_;
  ThreadState state_ = ThreadState::kReady;
  Cpu* last_cpu_ = nullptr;  // affinity hint
  SimDuration cpu_time_ = 0;
  unsigned engine_scope_ = 0;  // EngineScope depth; survives migration
  IntrusiveList<Thread, &Thread::wait_hook> joiners_;
};

/// Calling-thread services, usable only from inside a marcel thread
/// (or any fiber occupying a CPU, e.g. a tasklet body).
namespace this_thread {

/// The current thread, or nullptr when running on a service fiber.
[[nodiscard]] Thread* self() noexcept;

/// The CPU the calling fiber occupies.  Asserts if called from outside.
[[nodiscard]] Cpu& cpu() noexcept;

/// Consume `d` nanoseconds of CPU time.  Preemptible at internal chunk
/// boundaries; returns with the thread possibly migrated.
void compute(SimDuration d);

/// One busy-wait granule on a lock word: the virtual-time outcome of
/// compute(step), after which the caller re-checks `*word`.  Further
/// granules that would find the word still set run in engine context
/// without resuming the fiber (Cpu::spin_chunk).
void spin_granule(SimDuration step, const void* const* word);

/// Give up the CPU; the thread stays ready.
void yield();

/// Block for `d` nanoseconds of virtual time without consuming CPU.
void sleep(SimDuration d);

}  // namespace this_thread

}  // namespace pm2::marcel
