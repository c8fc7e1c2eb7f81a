#include "sim/engine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::sim {

EventId Engine::schedule_at(SimTime t, Callback cb) {
  PM2_ASSERT_MSG(t >= now_, "scheduling into the past");
  PM2_ASSERT(cb != nullptr);
  if (fuzzer_ != nullptr) t = fuzzer_->perturb_event_time(t);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PM2_ASSERT_MSG(slab_.size() <= kSlotMask, "too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    owner_.push_back(kInvalidEventId);
  }
  PM2_ASSERT_MSG(next_seq_ < (EventId{1} << (64 - kSlotBits)),
                 "event sequence exhausted");
  const EventId id = next_seq_++ << kSlotBits | slot;
  slab_[slot] = std::move(cb);
  owner_[slot] = id;
  heap_push(Key{t, id});
  return id;
}

bool Engine::cancel(EventId id) {
  const auto slot = static_cast<std::size_t>(id & kSlotMask);
  if (id == kInvalidEventId || slot >= owner_.size() || owner_[slot] != id) {
    return false;
  }
  owner_[slot] = kInvalidEventId;
  Callback dead;  // destroyed on return, once the slot is consistent
  dead.swap(slab_[slot]);
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return true;
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
  while (!heap_.empty() && owner_[heap_[0].id & kSlotMask] != heap_[0].id) {
    heap_pop();
  }
}

bool Engine::step() {
  drop_cancelled();
  if (heap_.empty()) return false;
  const Key top = heap_[0];
  heap_pop();
  const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
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
    if (heap_.empty() || heap_[0].time > t) break;
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
  return !stopped_;
}

}  // namespace pm2::sim
