// Blocking synchronisation primitives for simulated threads.  These block
// the *virtual* thread (the CPU schedules something else); the spin-class
// lock of the engine is nm::EngineLock, which burns virtual CPU instead.
#pragma once

#include <cstddef>

#include "common/intrusive_list.hpp"
#include "marcel/thread.hpp"

namespace pm2::marcel {

/// Mutual exclusion with FIFO wakeup and direct ownership hand-off.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock();
  [[nodiscard]] bool try_lock();
  void unlock();

  [[nodiscard]] bool locked() const noexcept { return owner_ != nullptr; }
  [[nodiscard]] Thread* owner() const noexcept { return owner_; }

 private:
  Thread* owner_ = nullptr;
  IntrusiveList<Thread, &Thread::wait_hook> waiters_;
};

/// Condition variable; always used with a Mutex held by the caller.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `m` and block; re-acquires `m` before returning.
  void wait(Mutex& m);

  /// `wait` with a predicate loop.
  template <typename Pred>
  void wait(Mutex& m, Pred pred) {
    while (!pred()) wait(m);
  }

  /// Timed wait: true if notified, false on timeout.  Re-acquires `m`
  /// either way.
  [[nodiscard]] bool wait_for(Mutex& m, SimDuration timeout);

  void notify_one();
  void notify_all();

 private:
  IntrusiveList<Thread, &Thread::wait_hook> waiters_;
};

/// Counting semaphore.
class Semaphore {
 public:
  explicit Semaphore(std::size_t initial = 0) : count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  void acquire();
  [[nodiscard]] bool try_acquire();
  void release(std::size_t n = 1);

  [[nodiscard]] std::size_t value() const noexcept { return count_; }

 private:
  std::size_t count_;
  IntrusiveList<Thread, &Thread::wait_hook> waiters_;
};

/// Reusable barrier for a fixed number of participants.
class Barrier {
 public:
  explicit Barrier(std::size_t parties);
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties have arrived; the last arriver releases
  /// everyone and resets the barrier for the next round.
  void arrive_and_wait();

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

 private:
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  IntrusiveList<Thread, &Thread::wait_hook> waiters_;
};

}  // namespace pm2::marcel
