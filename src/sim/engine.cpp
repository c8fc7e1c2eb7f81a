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

std::uint32_t Engine::next_seq(LaneState& drawer) {
  if (drawer.seq_time != now_) {
    drawer.seq_time = now_;
    drawer.seq = 0;
  }
  PM2_ASSERT_MSG(drawer.seq < kMaxSeq, "too many events drawn at one instant");
  return ++drawer.seq;
}

Engine::Key Engine::next_key(Lane target, SimTime t, std::uint64_t slot) {
  PM2_ASSERT_MSG(t >= now_, "scheduling into the past");
  PM2_ASSERT_MSG(target == cur_ || cur_ == kHostLane || target == kHostLane ||
                     t - now_ >= lookahead_,
                 "cross-lane event inside the lookahead");
  PM2_ASSERT_MSG(t >= lane_state(target).clock,
                 "scheduling into the target lane's past");
  if (fuzzer_ != nullptr) t = fuzzer_->perturb_event_time(t);
  return Key{t, now_, tag_of(cur_, next_seq(lanes_[cur_]), slot)};
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

void Engine::enrol(Timer& timer) {
  if (timer.index_ != Timer::kUnregistered) return;
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

void Engine::arm(Timer& timer, SimTime t) {
  PM2_ASSERT_MSG(!timer.armed(), "arming an armed timer");
  enrol(timer);
  const Key k = next_key(timer.lane_, t, kTimerBit | timer.index_);
  timer.drawn_ = k.drawn;
  timer.tag_ = k.tag;
  timer.parked_ = false;
  push(timer.lane_, k);
  ++timers_armed_;
}

void Engine::park(Timer& timer, SimTime t) {
  PM2_ASSERT_MSG(!timer.armed(), "arming an armed timer");
  PM2_ASSERT_MSG(timer.parking_ != nullptr, "parking a timer without keep");
  enrol(timer);
  const Key k = next_key(timer.lane_, t, kTimerBit | timer.index_);
  timer.drawn_ = k.drawn;
  timer.tag_ = k.tag;
  timer.parked_ = true;
  std::vector<Parked>& list = lanes_[timer.lane_].parked;
  if (list.empty()) parked_lanes_.push_back(timer.lane_);
  // Kept in key order, least first.
  list.push_back(Parked{k, &timer});
  std::size_t i = list.size() - 1;
  for (; i > 0 && before(k, list[i - 1].key); --i) list[i] = list[i - 1];
  list[i] = Parked{k, &timer};
  ++parked_;
  ++timers_armed_;
}

void Engine::unpark(Timer& timer) {
  if (!timer.armed() || !timer.parked_) return;
  const std::vector<Parked>& list = lanes_[timer.lane_].parked;
  std::size_t i = 0;
  while (list[i].timer != &timer) ++i;
  unpark_at(timer.lane_, i);
}

void Engine::unpark_at(Lane l, std::size_t i) {
  const Parked e = lanes_[l].parked[i];
  drop_parked(l, i);
  e.timer->parked_ = false;
  push(l, e.key);
}

void Engine::disarm(Timer& timer) noexcept {
  if (!timer.armed()) return;
  if (timer.parked_) {
    const std::vector<Parked>& list = lanes_[timer.lane_].parked;
    std::size_t i = 0;
    while (list[i].timer != &timer) ++i;
    drop_parked(timer.lane_, i);
    timer.parked_ = false;
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

void Engine::drop_parked(Lane l, std::size_t i) noexcept {
  std::vector<Parked>& list = lanes_[l].parked;
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
  --parked_;
  if (!list.empty()) return;
  std::size_t j = 0;
  while (parked_lanes_[j] != l) ++j;
  parked_lanes_[j] = parked_lanes_.back();
  parked_lanes_.pop_back();
}

void Engine::run_parked_at(Lane l, std::size_t i) {
  const Parked e = lanes_[l].parked[i];
  drop_parked(l, i);
  ++off_heap_;
  fire(*e.timer, e.key.time);  // its parked() stays set while it runs
}

bool Engine::run_parked(const TopEntry* next, SimTime limit) {
  if (next != nullptr && next->lane != kHostLane &&
      lanes_[kHostLane].parked.empty()) {
    // Only the next event's own lane must catch up first; the others'
    // parked keys touch nothing that event can see.
    return catch_up(next->lane, next->key);
  }
  // A host-lane event or parked key may touch any lane: one at a time,
  // least first.
  Lane best = kHostLane;
  bool found = false;
  for (const Lane l : parked_lanes_) {
    const Key& k = lanes_[l].parked[0].key;
    if (next != nullptr ? !before(k, next->key) : k.time > limit) continue;
    if (found && !before(k, lanes_[best].parked[0].key)) continue;
    best = l;
    found = true;
  }
  if (!found) return false;
  run_parked_at(best, 0);
  return true;
}

bool Engine::catch_up(Lane l, const Key& bound) {
  std::vector<Parked>& list = lanes_[l].parked;
  if (list.empty() || !before(list[0].key, bound)) return false;
  LaneState& s = lanes_[l];
  if (list[0].timer->parking_->skip == nullptr || fuzzer_ != nullptr) {
    run_parked_at(l, 0);
    return true;
  }
  do {
    Parked& e = list[0];
    Timer& timer = *e.timer;
    const Timer::Parking& parking = *timer.parking_;
    if (parking.skip == nullptr) break;  // it runs in full, after settle
    // It runs next up to `bound` or the lane's second least key.
    const Key until =
        list.size() > 1 && before(list[1].key, bound) ? list[1].key : bound;
    const std::uint64_t slot = kTimerBit | timer.index_;
    do {
      enter(l, e.key.time);
      const SimDuration d = parking.skip(timer.ctx_);
      PM2_ASSERT(d > 0);
      // The re-park's draw, in place.
      e.key = Key{now_ + d, now_, tag_of(l, next_seq(s), slot)};
      ++off_heap_;
      if (parking.skip_more != nullptr && before(e.key, until)) {
        // The runs at first, first + d, ... whose keys precede `until`.
        // Nothing else of the lane runs or draws meanwhile, so each of
        // them draws the first key at its instant.
        const SimTime first = e.key.time;
        std::uint64_t n = (until.time - first) / d;
        // Runs 0 .. n-1 draw keys before `until`'s instant; run n's key
        // is drawn at it.
        if (n == 0 || before(Key{first + n * d, first + (n - 1) * d,
                                 tag_of(l, 1, slot)},
                             until)) {
          ++n;
        }
        enter(l, first + (n - 1) * d);
        parking.skip_more(timer.ctx_, n);
        e.key = Key{now_ + d, now_, tag_of(l, next_seq(s), slot)};
        off_heap_ += n;
      }
    } while (before(e.key, until));
    timer.drawn_ = e.key.drawn;
    timer.tag_ = e.key.tag;
    // Back into key order.
    const Parked moved = e;
    std::size_t k = 0;
    for (; k + 1 < list.size() && before(list[k + 1].key, moved.key); ++k) {
      list[k] = list[k + 1];
    }
    list[k] = moved;
  } while (before(list[0].key, bound));
  for (const Parked& e : list) {
    if (e.timer->parking_->settle != nullptr) {
      e.timer->parking_->settle(e.timer->ctx_);
    }
  }
  return true;
}

void Engine::recheck(Lane l) {
  const std::vector<Parked>& list = lanes_[l].parked;
  // Backwards: unpark_at() shifts the entries after i, already asked.
  for (std::size_t i = list.size(); i-- > 0;) {
    const Timer& timer = *list[i].timer;
    if (!timer.parking_->keep(timer.ctx_)) unpark_at(l, i);
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

bool Engine::step(SimTime limit) {
  drop_cancelled();
  const bool due = !top_.empty() && top_[0].key.time <= limit;
  if (parked_ != 0) {
    if (due) {
      const TopEntry next = top_[0];
      if (run_parked(&next, limit)) return true;
    } else if (run_parked(nullptr, limit)) {
      return true;
    }
  }
  if (!due) return false;
  const Key top = top_[0].key;
  const Lane lane = top_[0].lane;
  pop_top();
  const auto slot = static_cast<std::uint32_t>(top.tag & kSlotMask);
  if ((slot & kTimerBit) != 0) {
    ++processed_;
    fire(*timers_[slot & ~kTimerBit], top.time);
  } else {
    slots_[slot] = SlotRecord{};
    // Move the callback out first: it may schedule, which can grow the
    // slab.
    Callback cb;
    cb.swap(slab_[slot]);
    free_slots_.push_back(slot);
    PM2_ASSERT(top.time >= lanes_[lane].clock);
    enter(lane, top.time);
    ++processed_;
    cb();
  }
  if (parked_ != 0) {
    if (lane != kHostLane) {
      if (!lanes_[lane].parked.empty()) recheck(lane);
    } else {
      recheck_all();
    }
  }
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
  const Lane lane = cur_;
  // The running event may have changed what a parked chain would find.
  if (!lanes_[lane].parked.empty()) recheck(lane);
  const LaneState& own = lanes_[lane];
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
  for (const Parked& e : host.parked) {
    if (t >= e.key.time) return false;
  }
  if (!own.parked.empty()) run_parked_ahead_of(t);
  ++off_heap_;
  enter(lane, t);
  return true;
}

void Engine::run_parked_ahead_of(SimTime t) {
  const Lane lane = cur_;
  LaneState& own = lanes_[lane];
  // The key the stepped event at t would have drawn here, with its seq
  // taken: parked keys before it run first, as they would have run after
  // the running event drew it.
  const Key stepped{t, now_, tag_of(lane, next_seq(own), 0)};
  while (catch_up(lane, stepped)) {
  }
  // A parked run stays parked: it ends nothing on its own.
  const std::vector<Key>& heap = lanes_[lane].heap;
  PM2_ASSERT_MSG(heap.empty() || heap[0].time > t,
                 "a parked run armed a heap key inside a run-ahead");
}

bool Engine::run_one() {
  const bool ran = step(kSimTimeNever);
  leave();
  return ran;
}

void Engine::recheck_all() {
  // Backwards: recheck() may drop the lane at j, moving the last one,
  // already rechecked, into j.
  for (std::size_t j = parked_lanes_.size(); j-- > 0;) {
    if (j < parked_lanes_.size()) recheck(parked_lanes_[j]);
  }
}

void Engine::run() {
  stopped_ = false;
  recheck_all();  // the host may have changed what a chain would find
  while (!stopped_ && step(kSimTimeNever)) {
  }
  leave();
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  limit_ = t;
  recheck_all();
  while (!stopped_ && step(t)) {
  }
  limit_ = kSimTimeNever;
  if (!stopped_ && latest_ < t) latest_ = t;
  leave();
  return !stopped_;
}

}  // namespace pm2::sim
