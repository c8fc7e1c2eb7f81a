#include "sim/engine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::sim {

Engine::LaneState& Engine::lane_state(Lane l) {
  if (l >= lanes_.size()) {
    PM2_ASSERT_MSG(l < (Lane{1} << (64 - kLaneShift)), "too many lanes");
    lanes_.resize(std::size_t{l} + 1);
  }
  return lanes_[l];
}

Engine::Key Engine::next_key(Lane target, SimTime t, std::uint64_t slot) {
  PM2_ASSERT_MSG(t >= now_, "scheduling into the past");
  PM2_ASSERT_MSG(target == cur_ || cur_ == kHostLane || target == kHostLane ||
                     t - now_ >= lookahead_,
                 "cross-lane event inside the lookahead");
  PM2_ASSERT_MSG(t >= lane_state(target).clock,
                 "scheduling into the target lane's past");
  if (fuzzer_ != nullptr) t = fuzzer_->perturb_event_time(t);
  LaneState& drawer = lanes_[cur_];
  if (drawer.seq_time != now_) {
    drawer.seq_time = now_;
    drawer.seq = 0;
  }
  PM2_ASSERT_MSG(drawer.seq < kMaxSeq, "too many events drawn at one instant");
  ++drawer.seq;
  return Key{t, now_,
             std::uint64_t{cur_} << kLaneShift |
                 std::uint64_t{drawer.seq} << kSlotBits | slot};
}

EventId Engine::schedule_on(Lane lane, SimTime t, Callback cb) {
  PM2_ASSERT(cb != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PM2_ASSERT_MSG(slab_.size() < kTimerBit, "too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    slots_.emplace_back();
  }
  const Key k = next_key(lane, t, slot);
  PM2_ASSERT_MSG(next_id_ < (EventId{1} << (64 - kSlotBits)),
                 "event ids exhausted");
  const EventId id = next_id_++ << kSlotBits | slot;
  slab_[slot] = std::move(cb);
  slots_[slot] = SlotRecord{id, k.drawn, k.tag};
  push(lane, k);
  return id;
}

bool Engine::cancel(EventId id) {
  const auto slot = static_cast<std::size_t>(id & kSlotMask);
  // A timer's slot (kTimerBit set) is beyond every callback slot.
  if (id == kInvalidEventId || slot >= slots_.size() || slots_[slot].id != id) {
    return false;
  }
  slots_[slot] = SlotRecord{};
  Callback dead;  // destroyed on return, once the slot is consistent
  dead.swap(slab_[slot]);
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return true;
}

void Engine::arm(Timer& timer, SimTime t) {
  PM2_ASSERT_MSG(!timer.armed(), "arming an armed timer");
  if (timer.queue_ == TimerQueue::kSide) {
    const Key k = next_key(timer.lane_, t, kTimerBit);
    timer.drawn_ = k.drawn;
    timer.tag_ = k.tag;
    if (side_.empty() || before(k, side_[side_min_].key)) {
      side_min_ = side_.size();
    }
    side_.push_back(SideEntry{k, &timer});
  } else {
    if (timer.index_ == Timer::kUnregistered) {
      if (!free_timers_.empty()) {
        timer.index_ = free_timers_.back();
        free_timers_.pop_back();
      } else {
        PM2_ASSERT_MSG(timers_.size() < kTimerBit, "too many timers");
        timer.index_ = static_cast<std::uint32_t>(timers_.size());
        timers_.push_back(nullptr);
      }
      timers_[timer.index_] = &timer;
    }
    const Key k = next_key(timer.lane_, t, kTimerBit | timer.index_);
    timer.drawn_ = k.drawn;
    timer.tag_ = k.tag;
    push(timer.lane_, k);
  }
  ++timers_armed_;
}

void Engine::disarm(Timer& timer) noexcept {
  if (!timer.armed()) return;
  if (timer.queue_ == TimerQueue::kSide) {
    std::size_t i = 0;
    while (side_[i].timer != &timer) ++i;
    side_remove(i);
  }
  timer.tag_ = 0;  // a heap key is dropped when it surfaces
  --timers_armed_;
}

void Engine::release(Timer& timer) noexcept {
  disarm(timer);
  if (timer.index_ == Timer::kUnregistered) return;
  timers_[timer.index_] = nullptr;
  free_timers_.push_back(timer.index_);
  timer.index_ = Timer::kUnregistered;
}

void Engine::side_remove(std::size_t i) noexcept {
  side_[i] = side_.back();
  side_.pop_back();
  side_min_ = 0;
  for (std::size_t j = 1; j < side_.size(); ++j) {
    if (before(side_[j].key, side_[side_min_].key)) side_min_ = j;
  }
}

void Engine::fire(Timer& timer, SimTime t) {
  timer.tag_ = 0;
  --timers_armed_;
  PM2_ASSERT(t >= lanes_[timer.lane_].clock);
  enter(timer.lane_, t);
  timer.fn_(timer.ctx_);
}

void Engine::heap_push(std::vector<Key>& heap, Key k) {
  std::size_t i = heap.size();
  heap.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = k;
}

void Engine::heap_pop(std::vector<Key>& heap) {
  const Key last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap[c], heap[min])) min = c;
    }
    if (!before(heap[min], last)) break;
    heap[i] = heap[min];
    i = min;
  }
  heap[i] = last;
}

void Engine::top_sift_up(std::size_t i) {
  const TopEntry e = top_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e.key, top_[parent].key)) break;
    top_place(i, top_[parent]);
    i = parent;
  }
  top_place(i, e);
}

void Engine::top_sift_down(std::size_t i) {
  const TopEntry e = top_[i];
  const std::size_t n = top_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(top_[c].key, top_[min].key)) min = c;
    }
    if (!before(top_[min].key, e.key)) break;
    top_place(i, top_[min]);
    i = min;
  }
  top_place(i, e);
}

void Engine::push(Lane l, Key k) {
  LaneState& s = lanes_[l];
  heap_push(s.heap, k);
  if (s.pos == kNoPos) {
    top_.push_back(TopEntry{k, l});
    top_sift_up(top_.size() - 1);
  } else if (s.heap[0].tag == k.tag && s.heap[0].drawn == k.drawn) {
    top_[s.pos].key = k;  // the lane's least key only ever decreases here
    top_sift_up(s.pos);
  }
}

void Engine::pop_top() {
  const Lane l = top_[0].lane;
  LaneState& s = lanes_[l];
  heap_pop(s.heap);
  if (!s.heap.empty()) {
    top_[0].key = s.heap[0];
    top_sift_down(0);
    return;
  }
  s.pos = kNoPos;
  const TopEntry last = top_.back();
  top_.pop_back();
  if (top_.empty()) return;
  top_place(0, last);
  top_sift_down(0);
}

void Engine::drop_cancelled() {
  while (!top_.empty() && !live(top_[0].key)) pop_top();
}

bool Engine::step() {
  drop_cancelled();
  if (side_first()) {
    const SideEntry e = side_[side_min_];
    side_remove(side_min_);
    ++side_processed_;
    fire(*e.timer, e.key.time);
    return true;
  }
  if (top_.empty()) return false;
  const Key top = top_[0].key;
  const Lane lane = top_[0].lane;
  pop_top();
  const auto slot = static_cast<std::uint32_t>(top.tag & kSlotMask);
  if ((slot & kTimerBit) != 0) {
    ++processed_;
    fire(*timers_[slot & ~kTimerBit], top.time);
    return true;
  }
  slots_[slot] = SlotRecord{};
  // Move the callback out first: it may schedule, which can grow the slab.
  Callback cb;
  cb.swap(slab_[slot]);
  free_slots_.push_back(slot);
  PM2_ASSERT(top.time >= lanes_[lane].clock);
  enter(lane, top.time);
  ++processed_;
  cb();
  return true;
}

namespace {
/// t >= time + ahead, without overflowing at kSimTimeNever.
bool reaches(SimTime t, SimTime time, SimDuration ahead) noexcept {
  return t >= ahead && t - ahead >= time;
}
}  // namespace

bool Engine::run_ahead(SimTime t) {
  if (cur_ == kHostLane || fuzzer_ != nullptr || t > limit_) return false;
  const LaneState& own = lanes_[cur_];
  if (!own.heap.empty() && own.heap[0].time <= t) return false;
  // The other lanes' earliest pending times; a cancelled key still on a
  // heap only makes the bound tighter.
  if (!top_.empty()) {
    std::size_t other = 0;
    if (top_[0].lane == cur_) {
      other = top_.size();
      for (std::size_t c = 1; c < 5 && c < top_.size(); ++c) {
        if (other == top_.size() || before(top_[c].key, top_[other].key)) {
          other = c;
        }
      }
    }
    if (other < top_.size() && reaches(t, top_[other].key.time, lookahead_)) {
      return false;
    }
  }
  const LaneState& host = lanes_[kHostLane];
  if (!host.heap.empty() && t >= host.heap[0].time) return false;
  for (const SideEntry& e : side_) {
    const Lane l = e.timer->lane_;
    const SimDuration ahead = l == kHostLane || l == cur_ ? 0 : lookahead_;
    if (reaches(t, e.key.time, ahead)) return false;
  }
  enter(cur_, t);
  return true;
}

bool Engine::run_one() {
  const bool ran = step();
  leave();
  return ran;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
  leave();
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  limit_ = t;
  while (!stopped_) {
    drop_cancelled();
    if (side_first() ? side_[side_min_].key.time > t
                     : top_.empty() || top_[0].key.time > t) {
      break;
    }
    step();
  }
  limit_ = kSimTimeNever;
  if (!stopped_ && latest_ < t) latest_ = t;
  leave();
  return !stopped_;
}

}  // namespace pm2::sim
