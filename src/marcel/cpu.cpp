#include "marcel/cpu.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "marcel/lockdep.hpp"
#include "marcel/node.hpp"
#include "marcel/runtime.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::marcel {
namespace {

thread_local Cpu* t_cpu = nullptr;
thread_local Thread* t_thread = nullptr;

/// sim::Timer entry point running member `M` of the Cpu passed as context.
template <void (Cpu::*M)()>
void call(void* cpu) {
  (static_cast<Cpu*>(cpu)->*M)();
}

}  // namespace

namespace detail {
Cpu* current_cpu() noexcept { return t_cpu; }
Thread* current_thread() noexcept { return t_thread; }
}  // namespace detail

const char* core_state_name(CoreState s) noexcept {
  switch (s) {
    case CoreState::kIdle: return "idle";
    case CoreState::kApp: return "app";
    case CoreState::kEngine: return "engine";
    case CoreState::kTasklet: return "tasklet";
    case CoreState::kBlocked: return "blocked";
  }
  return "?";
}

Cpu::Cpu(Node& node, unsigned index, const Config& cfg, sim::Engine& engine)
    : node_(node),
      index_(index),
      cfg_(cfg),
      engine_(engine),
      dispatch_timer_(&call<&Cpu::dispatch>, this, sim::TimerQueue::kHeap,
                      sim::node_lane(node.index())),
      resume_timer_(&call<&Cpu::run_occupant>, this, sim::TimerQueue::kHeap,
                    sim::node_lane(node.index())),
      switch_timer_(&call<&Cpu::run_occupant>, this, sim::TimerQueue::kHeap,
                    sim::node_lane(node.index())),
      granule_timer_(&call<&Cpu::end_spin_granule>, this,
                     sim::TimerQueue::kSide, sim::node_lane(node.index())),
      poll_timer_(&call<&Cpu::end_poll_chunk>, this, sim::TimerQueue::kHeap,
                  sim::node_lane(node.index())),
      tick_timer_(&call<&Cpu::on_tick>, this, sim::TimerQueue::kHeap,
                  sim::node_lane(node.index())),
      deadline_timer_(&call<&Cpu::spin_wake>, this, sim::TimerQueue::kHeap,
                      sim::node_lane(node.index())) {}

Cpu::~Cpu() {
  // The engine may outlive the core: leave no key that calls back into it.
  for (sim::Timer* t : {&dispatch_timer_, &resume_timer_, &switch_timer_,
                        &granule_timer_, &poll_timer_, &tick_timer_,
                        &deadline_timer_}) {
    engine_.release(*t);
  }
}

// ---------------------------------------------------------------- enqueue

void Cpu::enqueue(Thread& t, bool front) {
  PM2_ASSERT(t.state_ != ThreadState::kFinished);
  PM2_ASSERT_MSG(!t.rq_hook.is_linked(), "thread already on a runqueue");
  const bool was_halted = !busy() && !dispatch_timer_.armed();
  resume_tick();
  t.state_ = ThreadState::kReady;
  t.last_cpu_ = this;
  auto& q = rq_[static_cast<unsigned>(t.prio_)];
  front ? q.push_front(t) : q.push_back(t);
  ++ready_count_;
  note_new_work();
  if (occ_ == Occupant::kThread && cur_thread_ != nullptr &&
      t.prio_ > cur_thread_->prio_) {
    request_resched(t.prio_ == Priority::kRealtime);
  } else if (occ_ == Occupant::kService) {
    // The service loop checks for ready threads between rounds; a realtime
    // arrival cuts the current poll-gap short.
    request_resched(t.prio_ == Priority::kRealtime);
  }
  spin_wake();
  kick(was_halted ? cfg_.wakeup_cost : 0);
  // Surplus work (the core is occupied or more than one thread queued):
  // nudge an idle sibling so it can steal.
  if (busy() || ready_count_ > 1) node_.offer_steal(*this);
}

void Cpu::tasklet_enqueue(Tasklet& t) {
  const bool was_halted = !busy() && !dispatch_timer_.armed();
  resume_tick();
  tasklets_.push_back(t);
  note_new_work();
  if (occ_ == Occupant::kService) need_resched_ = true;
  spin_wake();
  kick(was_halted ? cfg_.wakeup_cost : 0);
}

void Cpu::note_new_work() noexcept {
  ++work_seq_;
  idle_park_ = false;
}

void Cpu::kick(SimDuration delay) {
  if (busy()) return;  // the dispatcher runs again when the occupant yields
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    delay = fz->perturb_delay(delay);  // fuzz wakeup/IPI delivery timing
  }
  const SimTime when = engine_.now() + delay;
  if (dispatch_timer_.armed()) {
    if (when >= dispatch_time_) return;
    engine_.disarm(dispatch_timer_);
  }
  dispatch_time_ = when;
  engine_.arm(dispatch_timer_, when);
}

void Cpu::request_resched(bool hard) {
  need_resched_ = true;
  if (spin_parked_) {
    if (!hard) {
      spin_wake();
      return;
    }
    // Cut the parked spin short, exactly as below for a compute chunk.
    engine_.disarm(resume_timer_);
    engine_.arm(resume_timer_, engine_.now());
    return;
  }
  if (hard && busy() &&
      (resume_timer_.armed() || granule_timer_.armed() ||
       poll_timer_.armed())) {
    // Cut the in-flight compute chunk, spin granule or poll chunk short:
    // resume the occupant now so it reaches its preemption point at once.
    engine_.disarm(resume_timer_);
    engine_.disarm(granule_timer_);
    engine_.disarm(poll_timer_);
    engine_.arm(switch_timer_, engine_.now());
  }
}

// ---------------------------------------------------------------- dispatch

void Cpu::dispatch() {
  if (busy()) return;
  ++stats_.dispatches;
  if (!tasklets_.empty()) {
    begin_run(Occupant::kService, nullptr);
    return;
  }
  if (Thread* t = pick_thread()) {
    begin_run(Occupant::kThread, t);
    return;
  }
  if (cfg_.work_stealing) {
    if (Thread* t = try_steal()) {
      begin_run(Occupant::kThread, t);
      return;
    }
  }
  if (node_.has_idle_hooks() && !idle_park_) {
    if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
      // Idle-core churn: defer entering the idle-poll loop so other cores'
      // events interleave differently with this core's polling rounds.
      SimDuration churn = 0;
      if (fz->churn_idle(&churn)) {
        kick(churn);
        return;
      }
    }
    service_idle_mode_ = true;
    begin_run(Occupant::kService, nullptr);
    return;
  }
  // Nothing to do: the core halts until kicked again.
}

Thread* Cpu::pick_thread() {
  for (int p = static_cast<int>(kNumPriorities) - 1; p >= 0; --p) {
    if (Thread* t = rq_[p].pop_front()) {
      --ready_count_;
      return t;
    }
  }
  return nullptr;
}

Thread* Cpu::try_steal() {
  const unsigned n = node_.cpu_count();
  for (unsigned i = 1; i < n; ++i) {
    Cpu& victim = node_.cpu((index_ + i) % n);
    if (victim.ready_count_ == 0) continue;
    // Steal from the back of the victim's highest non-empty class: those
    // threads have waited longest behind the victim's current occupant.
    for (int p = static_cast<int>(kNumPriorities) - 1; p >= 0; --p) {
      if (Thread* t = victim.rq_[p].pop_back()) {
        --victim.ready_count_;
        ++stats_.steals;
        t->last_cpu_ = this;
        return t;
      }
    }
  }
  return nullptr;
}

void Cpu::begin_run(Occupant what, Thread* t) {
  PM2_ASSERT(occ_ == Occupant::kNone);
  occ_ = what;
  cur_thread_ = t;
  if (t != nullptr) t->state_ = ThreadState::kRunning;
  if (what == Occupant::kThread) {
    set_core_state(t->engine_scope_ > 0 ? CoreState::kEngine
                                        : CoreState::kApp);
  } else {
    set_core_state(!tasklets_.empty() ? CoreState::kTasklet
                                      : CoreState::kEngine);
    if (!service_fiber_) {
      service_fiber_.emplace([this] { service_body(); }, cfg_.stack_bytes);
    }
  }
  ++stats_.ctx_switches;
  need_resched_ = false;
  slice_start_ = engine_.now();
  if (node_.runtime().tracer() != nullptr) {
    occ_label_ = t != nullptr ? t->name()
                 : !tasklets_.empty() ? std::string("service:tasklets")
                                      : std::string("service:idle-poll");
  }
  node_.run_switch_hooks(*this);
  arm_tick();
  charge(cfg_.ctx_switch_cost);
  engine_.arm_after(switch_timer_, cfg_.ctx_switch_cost);
}

void Cpu::run_occupant() {
  PM2_ASSERT(occ_ != Occupant::kNone);
  // Whatever this fiber does may be what a sibling's spinner polls for.
  if (node_.spinners_ != 0) node_.wake_spinners(this);
  resume_occupant();
}

void Cpu::end_spin_granule() {
  // The end of a spin_chunk() granule.  The stepped loop would resume the
  // fiber here, charge the granule, find the word still set and schedule
  // the next granule from compute_chunk(); doing those same steps in
  // engine context draws every key at the same time and schedule point.
  if (node_.spinners_ != 0) node_.wake_spinners(this);
  if (*granule_word_ != nullptr && !preemption_due() &&
      engine_.fuzzer() == nullptr) {
    charge(chunk_len_);
    ++stats_.spin_granules;
    chunk_start_ = engine_.now();
    chunk_len_ = granule_step_;
    engine_.arm_after(granule_timer_, chunk_len_);
    return;
  }
  resume_occupant();
}

void Cpu::end_poll_chunk() {
  // The end of a poll_chunk() chunk.  The stepped loop would resume the
  // fiber here, charge the chunk, run its loop up to the next chunk and
  // arm it from compute_chunk(); when the loop's boundary can do the same
  // in engine context, every key is drawn at the same time and point.
  if (node_.spinners_ != 0) node_.wake_spinners(this);
  if (!preemption_due() && engine_.fuzzer() == nullptr &&
      !lockdep::enabled()) {
    charge(chunk_len_);
    chunk_start_ = engine_.now();
    chunk_len_ = 0;
    // The loop's lock hooks stamp their events on the current CPU.
    Cpu* prev_cpu = t_cpu;
    Thread* prev_thread = t_thread;
    t_cpu = this;
    t_thread = current_thread();
    const SimDuration next = poll_loop_->boundary(*this);
    t_cpu = prev_cpu;
    t_thread = prev_thread;
    if (next > 0) {
      PM2_ASSERT(next <= cfg_.quantum);
      chunk_len_ = next;
      engine_.arm_after(poll_timer_, next);
      return;
    }
  }
  resume_occupant();
}

void Cpu::resume_occupant() {
  sim::Fiber& f =
      occ_ == Occupant::kThread ? cur_thread_->fiber_ : *service_fiber_;
  Cpu* prev_cpu = t_cpu;
  Thread* prev_thread = t_thread;
  t_cpu = this;
  t_thread = occ_ == Occupant::kThread ? cur_thread_ : nullptr;
  f.resume();
  t_cpu = prev_cpu;
  t_thread = prev_thread;
  handle_suspension();
}

void Cpu::handle_suspension() {
  if (occ_ == Occupant::kThread && cur_thread_->fiber_.finished()) {
    trace_occupancy_end();
    set_core_state(CoreState::kIdle);
    Thread* t = cur_thread_;
    occ_ = Occupant::kNone;
    cur_thread_ = nullptr;
    finish_thread(*t);
    kick();
    return;
  }
  switch (last_suspend_) {
    case SuspendReason::kCompute:
      // Resume event already queued; the core stays busy.
      return;
    case SuspendReason::kYield:
    case SuspendReason::kPreempted: {
      trace_occupancy_end();
      set_core_state(CoreState::kIdle);
      Thread* t = cur_thread_;
      occ_ = Occupant::kNone;
      cur_thread_ = nullptr;
      enqueue(*t);  // back of its priority class
      kick();
      return;
    }
    case SuspendReason::kBlocked: {
      PM2_ASSERT(cur_thread_ != nullptr &&
                 cur_thread_->state_ == ThreadState::kBlocked);
      trace_occupancy_end();
      set_core_state(CoreState::kBlocked);
      occ_ = Occupant::kNone;
      cur_thread_ = nullptr;
      kick();
      return;
    }
    case SuspendReason::kServiceDone: {
      trace_occupancy_end();
      set_core_state(CoreState::kIdle);
      occ_ = Occupant::kNone;
      service_idle_mode_ = false;
      kick();
      return;
    }
    case SuspendReason::kServicePark: {
      trace_occupancy_end();
      set_core_state(CoreState::kIdle);
      occ_ = Occupant::kNone;
      service_idle_mode_ = false;
      if (work_seq_ == service_round_seq_) {
        idle_park_ = true;  // nothing new arrived during the failed round
      }
      if (ready_count_ > 0 || !tasklets_.empty() || !idle_park_) kick();
      return;
    }
    case SuspendReason::kNone:
      PM2_UNREACHABLE("occupant suspended without a reason");
  }
}

void Cpu::finish_thread(Thread& t) {
  t.state_ = ThreadState::kFinished;
  while (Thread* j = t.joiners_.pop_front()) node_.wake(*j);
}

void Cpu::trace_occupancy_end() {
  sim::Tracer* tracer = node_.runtime().tracer();
  if (tracer == nullptr) return;
  if (trace_track_.empty()) {
    trace_track_ = "node" + std::to_string(node_.index()) + "/cpu" +
                   std::to_string(index_);
  }
  const SimTime now = engine_.now();
  if (now > slice_start_) {
    tracer->span(trace_track_, occ_label_, slice_start_, now,
                 occ_label_.rfind("service", 0) == 0 ? "service" : "thread");
  }
}

// ---------------------------------------------------------------- timing

void Cpu::arm_tick() {
  if (tick_timer_.armed() || cfg_.timer_tick == 0) return;
  SimDuration period = cfg_.timer_tick;
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    period = fz->perturb_tick(period);  // fuzz the tick phase
  }
  engine_.arm_after(tick_timer_, period);
}

void Cpu::resume_tick() {
  if (!tick_lapsed_) return;
  tick_lapsed_ = false;
  // The ticks skipped meanwhile would have found nothing to do; one that
  // falls on this very instant is taken to have run already.
  const SimDuration period = cfg_.timer_tick;
  const SimTime now = engine_.now();
  engine_.arm(tick_timer_,
              tick_phase_ + ((now - tick_phase_) / period + 1) * period);
}

void Cpu::on_tick() {
  if (occ_ == Occupant::kNone) return;  // halted: stop ticking
  if (spin_parked_ && ready_count_ == 0 && tasklets_.empty() &&
      !node_.has_tick_hooks()) {
    // A parked spinner with nothing to preempt it for: this tick and the
    // ones after it are no-ops, so stop re-arming until someone calls
    // resume_tick().  This is what lets a drained queue expose a wait
    // that can never complete.
    tick_lapsed_ = true;
    tick_phase_ = engine_.now();
    return;
  }
  node_.run_tick_hooks(*this);
  if (occ_ == Occupant::kThread &&
      engine_.now() - slice_start_ >= cfg_.quantum && ready_count_ > 0) {
    need_resched_ = true;
    spin_wake();
  }
  // Softirq semantics: pending tasklets run at the timer interrupt even on
  // a busy core — cut the current compute chunk so the service fiber gets
  // in (tasklets have "very high priority", §3.1).
  if (!tasklets_.empty()) request_resched(true);
  arm_tick();
}

// ---------------------------------------------------------------- fiber side

SimDuration Cpu::compute_chunk(SimDuration d) {
  PM2_ASSERT_MSG(t_cpu == this, "compute from a fiber not on this CPU");
  PM2_ASSERT(busy());
  if (d == 0) return 0;
  if (preemption_due()) {
    suspend_current(SuspendReason::kPreempted);
    return d;  // caller refetches the (possibly new) CPU and continues
  }
  SimDuration chunk = std::min<SimDuration>(d, cfg_.quantum);
  if (sim::ScheduleFuzzer* fz = engine_.fuzzer()) {
    chunk = fz->perturb_chunk(chunk);  // extra preemption points
  }
  ++stats_.compute_chunks;
  if (!lockdep::enabled() && engine_.run_ahead(engine_.now() + chunk)) {
    // Nothing can reach this node before the chunk ends: its end event
    // would be the lane's next one, so do here what run_occupant() would
    // do there and carry on without suspending.
    ++stats_.chunks_inlined;
    if (node_.spinners_ != 0) node_.wake_spinners(this);
    charge(chunk);
    return d - chunk;
  }
  chunk_start_ = engine_.now();
  engine_.arm_after(resume_timer_, chunk);
  suspend_current(SuspendReason::kCompute);
  // Resumed — possibly early if a hard preemption cut the chunk short.
  const SimDuration elapsed =
      std::min<SimDuration>(engine_.now() - chunk_start_, chunk);
  charge(elapsed);
  return d - std::min(d, elapsed);
}

SimDuration Cpu::spin_chunk(SimDuration d, SimDuration step,
                            const void* const* word) {
  // One chunk must cover the rest of the granule (`d` ≤ `step` ≤ quantum)
  // for the engine-context re-check to fall where the stepped loop's does.
  if (engine_.fuzzer() != nullptr || step > cfg_.quantum) {
    return compute_chunk(d);
  }
  PM2_ASSERT_MSG(t_cpu == this, "spin from a fiber not on this CPU");
  PM2_ASSERT(busy() && d <= step);
  if (d == 0) return 0;
  if (preemption_due()) {
    suspend_current(SuspendReason::kPreempted);
    return d;
  }
  chunk_start_ = engine_.now();
  chunk_len_ = d;
  granule_word_ = word;
  granule_step_ = step;
  engine_.arm_after(granule_timer_, d);
  suspend_current(SuspendReason::kCompute);
  granule_word_ = nullptr;
  // Resumed at the end of the last granule armed, or inside it by a hard
  // preemption; earlier granules were charged in engine context.
  const SimDuration elapsed =
      std::min<SimDuration>(engine_.now() - chunk_start_, chunk_len_);
  charge(elapsed);
  return chunk_len_ - elapsed;
}

SimDuration Cpu::poll_chunk(SimDuration d, PollLoop& loop) {
  // One chunk must cover `d` for the boundary to fall where the stepped
  // loop's does.
  if (engine_.fuzzer() != nullptr || lockdep::enabled() || d > cfg_.quantum) {
    return compute_chunk(d);
  }
  PM2_ASSERT_MSG(t_cpu == this, "poll from a fiber not on this CPU");
  PM2_ASSERT(busy());
  if (d == 0) return 0;
  if (preemption_due()) {
    suspend_current(SuspendReason::kPreempted);
    return d;
  }
  chunk_start_ = engine_.now();
  chunk_len_ = d;
  poll_loop_ = &loop;
  engine_.arm_after(poll_timer_, d);
  suspend_current(SuspendReason::kCompute);
  poll_loop_ = nullptr;
  // Resumed at the end of the last chunk armed (fully charged when the
  // boundary ran), or inside it by a hard preemption.
  const SimDuration elapsed =
      std::min<SimDuration>(engine_.now() - chunk_start_, chunk_len_);
  charge(elapsed);
  return chunk_len_ - elapsed;
}

bool Cpu::service_repolls() const noexcept {
  return occ_ == Occupant::kService && service_idle_mode_ &&
         ready_count_ == 0 && tasklets_.empty() &&
         node_.idle_hooks_.size() == 1;
}

void Cpu::service_round_begin() {
  need_resched_ = false;
  set_core_state(CoreState::kEngine);
  service_round_seq_ = work_seq_;
}

void Cpu::spin_wait(SimDuration step, SimTime deadline) {
  PM2_ASSERT_MSG(t_cpu == this, "spin_wait from a fiber not on this CPU");
  const SimTime now = engine_.now();
  if (step == 0 || step > cfg_.quantum || occ_ != Occupant::kThread ||
      (need_resched_ && preempt_off_ == 0) || engine_.fuzzer() != nullptr ||
      deadline <= now + step) {
    this_thread::compute(step);
    return;
  }
  spin_parked_ = true;
  spin_t0_ = now;
  spin_step_ = step;
  ++node_.spinners_;
  ++stats_.spin_parks;
  if (deadline != kSimTimeNever) {
    // Wake one step before the first boundary at or after the deadline:
    // the caller polls there and its last step is a plain compute chunk,
    // resuming on the deadline boundary just as the stepped loop would.
    const SimDuration steps = (deadline - now + step - 1) / step;
    engine_.arm(deadline_timer_, now + (steps - 1) * step);
  }
  suspend_current(SuspendReason::kCompute);
  spin_parked_ = false;
  --node_.spinners_;
  engine_.disarm(deadline_timer_);
  resume_tick();
  // Resumed on a boundary (a wake), or mid-step (a hard preemption).
  const SimDuration elapsed = engine_.now() - spin_t0_;
  const SimDuration partial = elapsed % step;
  const bool on_boundary = elapsed > 0 && partial == 0;
  stats_.polls_elided += elapsed / step - (on_boundary ? 1 : 0);
  charge(elapsed);
  if (!on_boundary) this_thread::compute(step - partial);
}

void Cpu::spin_wake() {
  if (!spin_parked_ || resume_timer_.armed()) return;
  const SimDuration since = engine_.now() - spin_t0_;
  const SimDuration steps =
      std::max<SimDuration>(1, (since + spin_step_ - 1) / spin_step_);
  engine_.arm(resume_timer_, spin_t0_ + steps * spin_step_);
}

void Cpu::yield_current() {
  PM2_ASSERT(t_cpu == this && occ_ == Occupant::kThread);
  suspend_current(SuspendReason::kYield);
}

void Cpu::block_current() {
  PM2_ASSERT(t_cpu == this && occ_ == Occupant::kThread);
  cur_thread_->state_ = ThreadState::kBlocked;
  suspend_current(SuspendReason::kBlocked);
}

void Cpu::suspend_current(SuspendReason r) {
  if (lockdep::enabled()) {
    lockdep::note_suspension(r == SuspendReason::kBlocked);
  }
  last_suspend_ = r;
  sim::Fiber::suspend();
}

void Cpu::charge(SimDuration d) {
  if (occ_ == Occupant::kThread) {
    stats_.thread_busy_ns += d;
    cur_thread_->cpu_time_ += d;
  } else {
    stats_.service_busy_ns += d;
  }
}

void Cpu::preempt_enable() noexcept {
  PM2_ASSERT_MSG(preempt_off_ > 0, "unbalanced preempt_enable");
  --preempt_off_;
}

void Cpu::engine_scope_enter() noexcept {
  if (occ_ != Occupant::kThread) return;
  if (cur_thread_->engine_scope_++ == 0) set_core_state(CoreState::kEngine);
}

void Cpu::engine_scope_exit() noexcept {
  if (occ_ != Occupant::kThread) return;
  PM2_ASSERT_MSG(cur_thread_->engine_scope_ > 0, "unbalanced EngineScope");
  if (--cur_thread_->engine_scope_ == 0) set_core_state(CoreState::kApp);
}

// ------------------------------------------------------------- core states

void Cpu::set_core_state(CoreState s) {
  if (s == state_) return;
  const SimTime now = engine_.now();
  state_ns_[static_cast<std::size_t>(state_)] += now - state_since_;
  if (sim::Tracer* tracer = node_.runtime().tracer();
      tracer != nullptr && now > state_since_) {
    if (state_track_.empty()) {
      state_track_ = "node" + std::to_string(node_.index()) + "/cpu" +
                     std::to_string(index_) + "/state";
    }
    tracer->span(state_track_, core_state_name(state_), state_since_, now,
                 "core-state");
  }
  state_ = s;
  state_since_ = now;
}

void Cpu::flush_core_state() {
  const SimTime now = engine_.now();
  state_ns_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
}

// ---------------------------------------------------------------- service

void Cpu::service_body() {
  // NB: the service fiber is pinned to this CPU forever.
  for (;;) {
    need_resched_ = false;
    // 1. Tasklets — highest priority work (§3.1 of the paper).
    if (!tasklets_.empty()) set_core_state(CoreState::kTasklet);
    while (Tasklet* t = tasklets_.pop_front()) {
      run_one_tasklet(*t);
      if (ready_count_ > 0) break;  // a thread woke: stop hogging the core
    }
    if (!tasklets_.empty() || ready_count_ > 0 || !service_idle_mode_) {
      suspend_current(SuspendReason::kServiceDone);
      continue;
    }
    // 2. Idle polling round (PIOMan hooks).
    set_core_state(CoreState::kEngine);
    service_round_seq_ = work_seq_;
    const bool progress = node_.run_idle_hooks(*this);
    if (progress) {
      // Hooks consumed virtual time; loop for another round unless real
      // work appeared meanwhile.
      if (ready_count_ > 0 || !tasklets_.empty()) {
        suspend_current(SuspendReason::kServiceDone);
      }
      continue;
    }
    suspend_current(SuspendReason::kServicePark);
  }
}

void Cpu::run_one_tasklet(Tasklet& t) {
  t.scheduled_ = false;
  t.running_ = true;
  ++t.runs_;
  ++stats_.tasklets_run;
  lockdep::tasklet_enter(&t, t.name().c_str());
  if (cfg_.tasklet_dispatch_cost > 0) {
    SimDuration left = cfg_.tasklet_dispatch_cost;
    while (left > 0) left = compute_chunk(left);
  }
  t.fn_();
  lockdep::tasklet_exit(&t);
  t.running_ = false;
  if (t.resched_target_ != nullptr) {
    Cpu* target = t.resched_target_;
    t.resched_target_ = nullptr;
    t.schedule_on(*target);
  }
}

void Cpu::bind_metrics(MetricsRegistry& registry,
                       std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/thread_busy_ns", &stats_.thread_busy_ns);
  registry.bind_counter(p + "/service_busy_ns", &stats_.service_busy_ns);
  registry.bind_counter(p + "/tasklets_run", &stats_.tasklets_run);
  registry.bind_counter(p + "/ctx_switches", &stats_.ctx_switches);
  registry.bind_counter(p + "/steals", &stats_.steals);
  registry.bind_counter(p + "/dispatches", &stats_.dispatches);
  registry.bind_counter(p + "/spin_parks", &stats_.spin_parks);
  registry.bind_counter(p + "/polls_elided", &stats_.polls_elided);
  registry.bind_counter(p + "/spin_granules", &stats_.spin_granules);
  registry.bind_counter(p + "/engine_polls", &stats_.engine_polls);
  registry.bind_counter(p + "/compute_chunks", &stats_.compute_chunks);
  registry.bind_counter(p + "/chunks_inlined", &stats_.chunks_inlined);
  for (std::size_t i = 0; i < kNumCoreStates; ++i) {
    registry.bind_counter(
        p + "/state/" + core_state_name(static_cast<CoreState>(i)) + "_ns",
        &state_ns_[i]);
  }
}

}  // namespace pm2::marcel
