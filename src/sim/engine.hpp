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

/// Where an armed Timer waits: in the event heap, or in a short unsorted
/// side list beside it that costs no push or pop.  The side list suits
/// high-rate timers of which only a handful are armed at once.
enum class TimerQueue : std::uint8_t { kHeap, kSide };

/// A caller-owned event: a plain function, its context and the pending
/// key, armed and disarmed through Engine::arm() / disarm() without
/// allocating.  The owner keeps it at a fixed address from its first arm
/// until Engine::release(), which the owner must call before the timer
/// dies if the engine outlives it.
class Timer {
 public:
  using Fn = void (*)(void*);

  Timer(Fn fn, void* ctx, TimerQueue queue = TimerQueue::kHeap) noexcept
      : fn_(fn), ctx_(ctx), queue_(queue) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  [[nodiscard]] bool armed() const noexcept { return id_ != kInvalidEventId; }
  /// Key of the pending run (kInvalidEventId when disarmed).  Ordered like
  /// schedule_at() ids, but Engine::cancel() refuses it.
  [[nodiscard]] EventId id() const noexcept { return id_; }

 private:
  friend class Engine;
  static constexpr std::uint32_t kUnregistered = ~std::uint32_t{0};

  Fn fn_;
  void* ctx_;
  EventId id_ = kInvalidEventId;
  std::uint32_t index_ = kUnregistered;  // slot in the engine's timer table
  TimerQueue queue_;
};

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
  /// already cancelled, and for a Timer's id.
  bool cancel(EventId id);

  /// Arm `timer` (not armed) to run at `t` (>= now).  Its key is drawn
  /// exactly as schedule_at(t, ...) would draw one, so it runs at the same
  /// time and in the same order as such an event would.
  void arm(Timer& timer, SimTime t);
  void arm_after(Timer& timer, SimDuration d) { arm(timer, now_ + d); }

  /// Disarm `timer`; no-op when it is not armed.
  void disarm(Timer& timer) noexcept;

  /// Disarm `timer` and drop every reference the engine holds to it.
  void release(Timer& timer) noexcept;

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

  /// Number of events dispatched so far (diagnostics): scheduled callbacks
  /// and heap timers, not side-list timers.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  /// Number of side-list timer runs so far.  Every run of either kind is
  /// one step of the event order: steps = events + side runs.
  [[nodiscard]] std::uint64_t side_processed() const noexcept {
    return side_processed_;
  }
  /// Events neither run nor cancelled: the callback slots in use plus the
  /// armed timers.
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return slab_.size() - free_slots_.size() + timers_armed_;
  }

 private:
  // The queue is a 4-ary min-heap of 16-byte POD keys over a slab of
  // callbacks.  An id is `seq << kSlotBits | slot`: comparing ids compares
  // schedule order (FIFO within a timestamp), and cancel() is O(1) — it
  // clears the slot's owner, and the key is dropped when it surfaces.  A
  // stale id never matches a reused slot's owner, whose seq differs.
  // A heap timer's slot is kTimerBit | its index in the timer table, and
  // it is live while the timer's id still equals the key's.  Side-list
  // timers are never in the heap: step() runs the side list's least key
  // when it precedes the heap top.
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  static constexpr EventId kTimerBit = EventId{1} << (kSlotBits - 1);

  struct Key {
    SimTime time;
    EventId id;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }
  /// Draws the next key for time `t` (>= now), as schedule_at does.
  [[nodiscard]] Key next_key(SimTime t, EventId slot);
  [[nodiscard]] bool live(const Key& k) const noexcept {
    const EventId slot = k.id & kSlotMask;
    if ((slot & kTimerBit) == 0) return owner_[slot] == k.id;
    const Timer* timer = timers_[slot & ~kTimerBit];
    return timer != nullptr && timer->id_ == k.id;
  }
  void heap_push(Key k);
  void heap_pop();
  /// Pops cancelled keys off the top of the heap.
  void drop_cancelled();
  /// True when the side list's least key precedes the (live) heap top.
  [[nodiscard]] bool side_first() const noexcept {
    return !side_.empty() &&
           (heap_.empty() || before(side_[side_min_].key, heap_[0]));
  }
  void side_remove(std::size_t i) noexcept;
  /// Runs `timer`, whose key is (t, its id), now off every queue.
  void fire(Timer& timer, SimTime t);
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

  struct SideEntry {
    Key key;
    Timer* timer;
  };
  std::vector<Timer*> timers_;  // heap timers by table index, else null
  std::vector<std::uint32_t> free_timers_;
  std::vector<SideEntry> side_;  // armed side-list timers, unsorted
  std::size_t side_min_ = 0;     // index of side_'s least key
  std::size_t timers_armed_ = 0;
  std::uint64_t side_processed_ = 0;
};

}  // namespace pm2::sim
