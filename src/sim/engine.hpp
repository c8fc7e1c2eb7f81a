// Discrete-event simulation engine: a virtual clock plus a time-ordered
// event queue.  Deterministic: ties on the timestamp are broken by schedule
// order, and no real-time source is consulted anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/simtime.hpp"

namespace pm2::sim {

class ScheduleFuzzer;

/// Identifier usable to cancel a scheduled event.  Never reused: it packs
/// the schedule sequence number above the event's callback slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `d` nanoseconds of virtual time.
  EventId schedule_after(SimDuration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Schedule at the current time (runs after already-queued events at the
  /// same timestamp — FIFO within a timestamp).
  EventId schedule_now(Callback cb) { return schedule_at(now_, std::move(cb)); }

  /// Cancel a pending event.  Returns false if it already ran or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Dispatch exactly one event; false when the queue is drained.  Used by
  /// teardown paths (e.g. piom::Server joining its LWP) that must advance
  /// the simulation a bounded amount from host context.
  bool run_one() { return step(); }

  /// Attach a schedule fuzzer (nullptr detaches): newly scheduled events
  /// may then be nudged a few ns later, perturbing the FIFO tie-breaking
  /// between nearby events.  Existing queue entries are untouched, so
  /// attaching mid-run is safe.
  void set_fuzzer(ScheduleFuzzer* fuzzer) noexcept { fuzzer_ = fuzzer; }
  [[nodiscard]] ScheduleFuzzer* fuzzer() const noexcept { return fuzzer_; }

  /// Run events with time <= `t` (never one later, even when cancelled
  /// entries sit on top); afterwards now() == t unless stopped early.
  /// Returns false if stop() interrupted the run.
  bool run_until(SimTime t);

  /// Stop the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool empty() const noexcept { return events_pending() == 0; }

  /// Number of events dispatched so far (diagnostics).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  /// Events neither run nor cancelled: exactly the slots in use.
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return slab_.size() - free_slots_.size();
  }

 private:
  // The queue is a 4-ary min-heap of 16-byte POD keys over a slab of
  // callbacks.  An id is `seq << kSlotBits | slot`: comparing ids compares
  // schedule order (FIFO within a timestamp), and cancel() is O(1) — it
  // clears the slot's owner, and the key is dropped when it surfaces.  A
  // stale id never matches a reused slot's owner, whose seq differs.
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Key {
    SimTime time;
    EventId id;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }
  void heap_push(Key k);
  void heap_pop();
  /// Pops cancelled keys off the top of the heap.
  void drop_cancelled();
  /// Runs the next non-cancelled event; false when drained.
  bool step();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  ScheduleFuzzer* fuzzer_ = nullptr;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<Key> heap_;
  std::vector<Callback> slab_;           // callback per slot
  std::vector<EventId> owner_;           // live id per slot, else invalid
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace pm2::sim
