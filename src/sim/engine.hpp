// Discrete-event simulation engine: per-lane virtual clocks plus a
// time-ordered event queue.  Every event belongs to a lane (one per
// simulated node, plus the host lane) and is keyed by (time, draw time,
// drawing lane, the drawer's sequence number at that instant), a key that
// does not depend on the host's execution order.  Deterministic: no
// real-time source is consulted anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/simtime.hpp"

namespace pm2::sim {

class ScheduleFuzzer;

/// Identifier usable to cancel a scheduled event.  Never reused: it packs
/// a schedule counter above the event's callback slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// An event's owner: the host lane, or one simulated node's lane.  An
/// event may touch only its own lane's node; lanes interact through events
/// that one lane draws for another, which fire at least the engine's
/// lookahead later (the fabric's minimum inter-node latency).
using Lane = std::uint32_t;
/// The lane of events drawn from host context or by other host-lane
/// events.  Host-lane events may touch any node, so no lane runs ahead of
/// a pending one.
inline constexpr Lane kHostLane = 0;
/// The lane of simulated node `node`.
[[nodiscard]] constexpr Lane node_lane(unsigned node) noexcept {
  return node + 1;
}

/// Where an armed Timer waits: in the event heap, or in a short unsorted
/// side list beside it that costs no push or pop.  The side list suits
/// high-rate timers of which only a handful are armed at once.
enum class TimerQueue : std::uint8_t { kHeap, kSide };

/// A caller-owned event on a fixed lane: a plain function, its context
/// and the pending key, armed and disarmed through Engine::arm() /
/// disarm() without allocating.  The owner keeps it at a fixed address
/// from its first arm until Engine::release(), which the owner must call
/// before the timer dies if the engine outlives it.
class Timer {
 public:
  using Fn = void (*)(void*);

  Timer(Fn fn, void* ctx, TimerQueue queue = TimerQueue::kHeap,
        Lane lane = kHostLane) noexcept
      : fn_(fn), ctx_(ctx), lane_(lane), queue_(queue) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  [[nodiscard]] bool armed() const noexcept { return tag_ != 0; }
  /// Tag of the pending run's key (0 when disarmed).  Engine::cancel()
  /// refuses it.
  [[nodiscard]] EventId id() const noexcept { return tag_; }

 private:
  friend class Engine;
  static constexpr std::uint32_t kUnregistered = ~std::uint32_t{0};

  Fn fn_;
  void* ctx_;
  SimTime drawn_ = 0;     // the pending key's draw time
  std::uint64_t tag_ = 0; // the pending key's tag, 0 when disarmed
  std::uint32_t index_ = kUnregistered;  // slot in the engine's timer table
  Lane lane_;
  TimerQueue queue_;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time: the running lane's clock.  In host context
  /// (no event running) the latest clock any lane has reached, or the
  /// limit of the last run_until().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// The lane of the running event (kHostLane in host context).
  [[nodiscard]] Lane lane() const noexcept { return cur_; }

  /// The least delay of an event one node lane draws for another (0 until
  /// set).  Lanes run ahead of each other by less than this much.
  void set_lookahead(SimDuration l) noexcept { lookahead_ = l; }

  /// Schedule `cb` on the running lane at absolute time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb) {
    return schedule_on(cur_, t, std::move(cb));
  }

  /// Schedule `cb` on `lane` at absolute time `t` (>= now).  From a node
  /// lane, an event for another node lane must fire at least the
  /// lookahead after now.
  EventId schedule_on(Lane lane, SimTime t, Callback cb);

  /// Schedule `cb` after `d` nanoseconds of virtual time.
  EventId schedule_after(SimDuration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Schedule at the current time (runs after the events queued for this
  /// timestamp at earlier instants or earlier on this lane — FIFO within a
  /// lane).
  EventId schedule_now(Callback cb) { return schedule_at(now_, std::move(cb)); }

  /// Cancel a pending event.  Returns false if it already ran or was
  /// already cancelled, and for a Timer's id.
  bool cancel(EventId id);

  /// Arm `timer` (not armed) to run on its lane at `t` (>= now).  Its key
  /// is drawn exactly as schedule_on(its lane, t, ...) would draw one,
  /// so it runs at the same time and in the same order as such an event
  /// would.
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
  bool run_one();

  /// From a node-lane event: advance the running lane's clock to `t`
  /// inline, as if the lane's next event fired at `t`, when that is
  /// exactly what stepping would do.  True when the clock was advanced:
  ///   * the lane has no pending event at or before `t`;
  ///   * `t` is less than every other node lane's earliest pending time
  ///     plus the lookahead, and less than the host lane's earliest;
  ///   * no fuzzer is attached and no run_until() limit lies before `t`.
  /// The caller then does what that event would do.  Events another lane
  /// draws for this one later fire at least the lookahead after that
  /// lane's clock, so after `t`.
  [[nodiscard]] bool run_ahead(SimTime t);

  /// Attach a schedule fuzzer (nullptr detaches): newly scheduled events
  /// may then be nudged a few ns later, perturbing the FIFO tie-breaking
  /// between nearby events.  Existing queue entries are untouched, so
  /// attaching mid-run is safe.
  void set_fuzzer(ScheduleFuzzer* fuzzer) noexcept { fuzzer_ = fuzzer; }
  [[nodiscard]] ScheduleFuzzer* fuzzer() const noexcept { return fuzzer_; }

  /// Run events with time <= `t` (never one later, even when cancelled
  /// entries sit on top, nor a lane running ahead); afterwards now() == t
  /// unless stopped early.  Returns false if stop() interrupted the run.
  bool run_until(SimTime t);

  /// Stop the run loop after the current event returns.  Lanes that ran
  /// ahead keep what they did.
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
  // Each lane keeps a 4-ary min-heap of 24-byte POD keys; a top-level
  // heap orders the non-empty lanes by their least key, so the next event
  // and each lane's earliest pending one cost O(1) to find.  A key's tag is
  // `drawing lane << 48 | seq << 24 | slot`, seq counting the drawer's
  // draws at its current instant (from 1, so no live tag is 0).  A
  // callback slot's key is live while it matches the slot's record, so
  // cancel() is O(1): it clears the record, and the key is dropped when it
  // surfaces.  A heap timer's slot is kTimerBit | its index in the timer
  // table, and it is live while the timer's key still matches.  Side-list
  // timers are never in a heap: step() runs the side list's least key
  // when it precedes the top lane's.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kTimerBit = std::uint64_t{1}
                                             << (kSlotBits - 1);
  static constexpr unsigned kLaneShift = 48;
  static constexpr std::uint32_t kMaxSeq = (std::uint32_t{1} << 24) - 1;
  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

  struct Key {
    SimTime time;
    SimTime drawn;
    std::uint64_t tag;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.drawn != b.drawn ? a.drawn < b.drawn : a.tag < b.tag;
  }
  struct LaneState {
    SimTime clock = 0;
    SimTime seq_time = 0;   // the instant `seq` counts draws at
    std::uint32_t seq = 0;  // draws made at seq_time
    std::uint32_t pos = kNoPos;  // index in top_, kNoPos when empty
    std::vector<Key> heap;
  };
  struct TopEntry {
    Key key;  // the lane's least key
    Lane lane;
  };
  struct SlotRecord {
    EventId id = kInvalidEventId;  // kInvalidEventId while free
    SimTime drawn = 0;
    std::uint64_t tag = 0;
  };

  LaneState& lane_state(Lane l);
  /// Draws the next key for time `t` (>= now) on `target`.
  [[nodiscard]] Key next_key(Lane target, SimTime t, std::uint64_t slot);
  [[nodiscard]] bool live(const Key& k) const noexcept {
    const std::uint64_t slot = k.tag & kSlotMask;
    if ((slot & kTimerBit) == 0) {
      const SlotRecord& r = slots_[slot];
      return r.tag == k.tag && r.drawn == k.drawn;
    }
    const Timer* timer = timers_[slot & ~kTimerBit];
    return timer != nullptr && timer->tag_ == k.tag &&
           timer->drawn_ == k.drawn;
  }
  static void heap_push(std::vector<Key>& heap, Key k);
  static void heap_pop(std::vector<Key>& heap);
  void push(Lane l, Key k);
  /// Pops the top lane's least key.
  void pop_top();
  void top_sift_up(std::size_t i);
  void top_sift_down(std::size_t i);
  void top_place(std::size_t i, const TopEntry& e) noexcept {
    top_[i] = e;
    lanes_[e.lane].pos = static_cast<std::uint32_t>(i);
  }
  /// Pops cancelled keys off the top lane.
  void drop_cancelled();
  /// True when the side list's least key precedes the (live) top key.
  [[nodiscard]] bool side_first() const noexcept {
    return !side_.empty() &&
           (top_.empty() || before(side_[side_min_].key, top_[0].key));
  }
  void side_remove(std::size_t i) noexcept;
  /// Runs `timer`, whose key is (t, ...), now off every queue.
  void fire(Timer& timer, SimTime t);
  /// Makes `l` the running lane at time `t`.
  void enter(Lane l, SimTime t) noexcept {
    cur_ = l;
    now_ = t;
    lanes_[l].clock = t;
    if (t > latest_) latest_ = t;
  }
  /// Back to host context after a run: now() is the latest lane clock.
  void leave() noexcept { enter(kHostLane, latest_); }
  /// Runs the next non-cancelled event; false when drained.
  bool step();

  SimTime now_ = 0;
  SimTime latest_ = 0;  // the latest clock any lane has reached
  Lane cur_ = kHostLane;
  SimDuration lookahead_ = 0;
  SimTime limit_ = kSimTimeNever;  // run_until()'s bound while it runs
  std::uint64_t next_id_ = 1;
  ScheduleFuzzer* fuzzer_ = nullptr;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<LaneState> lanes_ = std::vector<LaneState>(1);
  std::vector<TopEntry> top_;
  std::vector<Callback> slab_;      // callback per slot
  std::vector<SlotRecord> slots_;   // live key and id per slot
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
