#include "sim/engine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::sim {

Engine::Key Engine::next_key(SimTime t, EventId slot) {
  PM2_ASSERT_MSG(t >= now_, "scheduling into the past");
  if (fuzzer_ != nullptr) t = fuzzer_->perturb_event_time(t);
  PM2_ASSERT_MSG(next_seq_ < (EventId{1} << (64 - kSlotBits)),
                 "event sequence exhausted");
  return Key{t, next_seq_++ << kSlotBits | slot};
}

EventId Engine::schedule_at(SimTime t, Callback cb) {
  PM2_ASSERT(cb != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PM2_ASSERT_MSG(slab_.size() < kTimerBit, "too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    owner_.push_back(kInvalidEventId);
  }
  const Key k = next_key(t, slot);
  slab_[slot] = std::move(cb);
  owner_[slot] = k.id;
  heap_push(k);
  return k.id;
}

bool Engine::cancel(EventId id) {
  const auto slot = static_cast<std::size_t>(id & kSlotMask);
  // A timer's slot (kTimerBit set) is beyond every callback slot.
  if (id == kInvalidEventId || slot >= owner_.size() || owner_[slot] != id) {
    return false;
  }
  owner_[slot] = kInvalidEventId;
  Callback dead;  // destroyed on return, once the slot is consistent
  dead.swap(slab_[slot]);
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return true;
}

void Engine::arm(Timer& timer, SimTime t) {
  PM2_ASSERT_MSG(!timer.armed(), "arming an armed timer");
  if (timer.queue_ == TimerQueue::kSide) {
    const Key k = next_key(t, kTimerBit);
    timer.id_ = k.id;
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
    const Key k = next_key(t, kTimerBit | timer.index_);
    timer.id_ = k.id;
    heap_push(k);
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
  timer.id_ = kInvalidEventId;  // a heap key is dropped when it surfaces
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
  timer.id_ = kInvalidEventId;
  --timers_armed_;
  PM2_ASSERT(t >= now_);
  now_ = t;
  timer.fn_(timer.ctx_);
}

void Engine::heap_push(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void Engine::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[min])) min = c;
    }
    if (!before(heap_[min], last)) break;
    heap_[i] = heap_[min];
    i = min;
  }
  heap_[i] = last;
}

void Engine::drop_cancelled() {
  while (!heap_.empty() && !live(heap_[0])) heap_pop();
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
  if (heap_.empty()) return false;
  const Key top = heap_[0];
  heap_pop();
  const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
  if ((slot & kTimerBit) != 0) {
    ++processed_;
    fire(*timers_[slot & ~kTimerBit], top.time);
    return true;
  }
  owner_[slot] = kInvalidEventId;
  // Move the callback out first: it may schedule, which can grow the slab.
  Callback cb;
  cb.swap(slab_[slot]);
  free_slots_.push_back(slot);
  PM2_ASSERT(top.time >= now_);
  now_ = top.time;
  ++processed_;
  cb();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    drop_cancelled();
    if (side_first() ? side_[side_min_].key.time > t
                     : heap_.empty() || heap_[0].time > t) {
      break;
    }
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
  return !stopped_;
}

}  // namespace pm2::sim
