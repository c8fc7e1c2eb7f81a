// Modeled NewMadeleine engine lock (the paper's §2.1 coarse library lock).
//
// The discrete-event simulation is single-host-threaded, so the engine's
// critical sections need no real mutual exclusion — ordering discipline
// already provides it.  What the real library pays, though, is the *cost*
// of that lock: every entry into the engine serializes on one spinlock,
// and contended acquisitions burn CPU.  EngineLock models exactly that:
//
//  - ownership is a fiber token plus a depth (the protocol re-enters the
//    engine, e.g. isend -> flush_gate), so acquisition is reentrant;
//  - a contended acquire spins in `spin` granules of virtual CPU time
//    until the holder releases, making contention visible in sim-time
//    (granules that find the lock still held cost no fiber switch and no
//    heap event: they run from the engine's side list of timers, see
//    marcel::this_thread::spin_granule);
//  - while held, preemption of the holder is disabled on its core — a
//    holder parked on a runqueue behind a fiber spinning on this very
//    lock would otherwise livelock the virtual machine;
//  - acquisition/release events go to the lockdep checker, as a
//    spin-class lock (blocking while holding it is flagged), and to the
//    lock profiler, which records wait/hold histograms.
//
// Engine-context completions (the modeled DMA-completion interrupt path,
// e.g. the rdma-done fabric callback) run outside the lock: they execute
// in raw engine context where there is no fiber to own it, mirroring an
// interrupt handler that relies on the engine's event ordering instead.
#pragma once

#include "common/simtime.hpp"

namespace pm2::nm {

class EngineLock {
 public:
  explicit EngineLock(SimDuration spin) noexcept : spin_(spin) {}

  EngineLock(const EngineLock&) = delete;
  EngineLock& operator=(const EngineLock&) = delete;

  /// Acquire (reentrant).  Must be called from a fiber occupying a
  /// virtual core; a contended acquire consumes virtual CPU time.
  void lock();

  /// Release; the outermost release re-enables preemption on the
  /// holder's core.
  void unlock();

  /// True when the calling fiber is the current owner.
  [[nodiscard]] bool held_by_caller() const noexcept;

  /// True when nobody holds the lock: lock() would not spin.
  [[nodiscard]] bool free() const noexcept { return owner_ == nullptr; }

  /// Engine context, lock free: report to the lock observers the
  /// uncontended lock() / unlock() that a fiber at this instant would
  /// make (its preempt_disable()/enable() pair nets to nothing).  An
  /// empty poll replays its lock traffic through these.
  void note_engine_acquire() const noexcept;
  void note_engine_release() const noexcept;

 private:
  const void* owner_ = nullptr;  // sim::Fiber token
  unsigned depth_ = 0;
  SimDuration spin_;
};

/// RAII guard that tolerates a null lock (engine-lock modeling disabled).
class EngineLockGuard {
 public:
  explicit EngineLockGuard(EngineLock* lock) : lock_(lock) {
    if (lock_ != nullptr) lock_->lock();
  }
  ~EngineLockGuard() {
    if (lock_ != nullptr) lock_->unlock();
  }

  EngineLockGuard(const EngineLockGuard&) = delete;
  EngineLockGuard& operator=(const EngineLockGuard&) = delete;

 private:
  EngineLock* lock_;
};

}  // namespace pm2::nm
