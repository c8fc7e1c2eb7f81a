#include "core/server.hpp"

#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "core/cond.hpp"
#include "marcel/cpu.hpp"
#include "marcel/lockdep.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::piom {

Server::Server(marcel::Node& node, Config cfg)
    : node_(node),
      cfg_(cfg),
      offload_tasklet_([this] { offload_tasklet_body(); }, "piom-offload") {
  idle_hook_id_ =
      node_.add_idle_hook([this](marcel::Cpu& cpu) { return idle_hook(cpu); });
  tick_hook_id_ =
      node_.add_tick_hook([this](marcel::Cpu& cpu) { tick_hook(cpu); });
  switch_hook_id_ =
      node_.add_switch_hook([this](marcel::Cpu& cpu) { switch_hook(cpu); });
  if (cfg_.enable_blocking_lwp) {
    lwp_ = &node_.spawn([this] { lwp_body(); }, marcel::Priority::kRealtime,
                        "piom-lwp");
  }
}

Server::~Server() {
  // Stop and join the LWP before tearing down.  Its fiber captures `this`;
  // merely removing the hooks used to leave it schedulable, so the next
  // engine step after destruction ran lwp_body() on a dead Server
  // (use-after-free).
  shutdown();
  if (lwp_ != nullptr && !lwp_->finished()) {
    PM2_ASSERT_MSG(sim::Fiber::current() == nullptr,
                   "~Server must run from engine/host context, not a fiber");
    sim::Engine& engine = node_.engine();
    while (!lwp_->finished() && engine.run_one()) {
    }
    PM2_ASSERT_MSG(lwp_->finished(), "piom-lwp failed to drain");
  }
  node_.remove_idle_hook(idle_hook_id_);
  node_.remove_tick_hook(tick_hook_id_);
  node_.remove_switch_hook(switch_hook_id_);
}

int Server::add_source(Source src) {
  PM2_ASSERT(src.poll != nullptr);
  auto entry = std::make_unique<SourceEntry>();
  entry->id = next_source_id_++;
  entry->stats = &stats_for(src.name);
  entry->src = std::move(src);
  sources_.push_back(std::move(entry));
  return sources_.back()->id;
}

void Server::remove_source(int id) {
  if (poll_round_depth_ > 0) {
    // Mid-round (typically a poll removing its own source): destroying a
    // std::function while its body executes is UB, and erase would shift
    // the vector under the iterating loop.  Tombstone; swept at depth 0.
    for (auto& e : sources_) {
      if (e->id == id && e->alive) {
        e->alive = false;
        sources_dirty_ = true;
      }
    }
    return;
  }
  std::erase_if(sources_, [id](const auto& e) { return e->id == id; });
}

Server::SourceStats& Server::stats_for(const std::string& name) {
  const auto [it, fresh] = source_stats_.try_emplace(name);
  if (fresh && metrics_ != nullptr) {
    const std::string p = metrics_prefix_ + "/source/" + name;
    metrics_->bind_counter(p + "/polls", &it->second.polls);
    metrics_->bind_counter(p + "/hits", &it->second.hits);
  }
  return it->second;
}

void Server::set_block_support(BlockSupport support) {
  block_support_ = std::move(support);
}

bool Server::has_work() const {
  if (armed_ > 0 || !posted_.empty()) return true;
  for (const auto& e : sources_) {
    if (e->alive && e->src.has_work != nullptr && e->src.has_work()) {
      return true;
    }
  }
  return false;
}

void Server::arm() {
  ++armed_;
  update_method();
  // Parked idle cores must resume polling for the new request.
  node_.kick_idle_cpus();
}

void Server::disarm() {
  PM2_ASSERT(armed_ > 0);
  --armed_;
  if (armed_ == 0) update_method();
}

void Server::arm_critical() {
  ++critical_;
  update_method();
}

void Server::disarm_critical() {
  PM2_ASSERT(critical_ > 0);
  --critical_;
  if (critical_ == 0) update_method();
}

void Server::post(WorkFn work) {
  ++stats_.posted_items;
  posted_.push_back({std::move(work), marcel::detail::current_cpu()});
  // §2.2: if a CPU is idle, process the event there; otherwise the item
  // waits for a core to become idle or for the wait() flush.
  if (marcel::Cpu* idle = node_.find_idle_cpu()) {
    offload_tasklet_.schedule_on(*idle);
  }
}

void Server::flush_posted() {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT_MSG(cpu != nullptr, "flush_posted outside a fiber");
  marcel::EngineScope scope;  // app thread draining the engine's work
  while (!posted_.empty()) {
    PostedItem item = std::move(posted_.front());
    posted_.pop_front();
    ++stats_.posted_flushed;
    item.fn();
  }
}

bool Server::run_posted(marcel::Cpu& cpu) {
  marcel::EngineScope scope;
  bool any = false;
  while (!posted_.empty()) {
    PostedItem item = std::move(posted_.front());
    posted_.pop_front();
    if (item.poster != &cpu) {
      // Request metadata lives in the poster's cache: model the transfer.
      marcel::this_thread::compute(cfg_.remote_exec_penalty);
      ++stats_.posted_offloaded;
    }
    item.fn();
    any = true;
  }
  return any;
}

bool Server::poll_source(SourceEntry& e, marcel::Cpu& cpu) {
  SourceStats& st = *e.stats;
  ++st.polls;
  const bool hit = e.src.poll(cpu);
  if (hit) ++st.hits;
  return hit;
}

// ------------------------------------------------------------ poll loops
//
// Cond::wait_until, the idle hook and progress_once share one loop body:
// open a round, burn ltask_poll_cost and poll for each live source, close
// the round, and (progress_once ends here) after a round without progress
// burn poll_gap before the loop top.  The fiber runs it in run_pass();
// Poller::boundary() runs the same steps in engine context at the end of
// each burn, as long as every check the fiber would make finds nothing to
// do (docs/concurrency.md §8).

bool Server::progress_once() {
  if (!posted_.empty()) flush_posted();
  Poller p(*this, Poller::Mode::kOnce);
  open_round(p, marcel::this_thread::cpu());
  run_pass(p);
  return p.progress;
}

void Server::open_round(Poller& p, marcel::Cpu& cpu) {
  cpu.engine_scope_enter();
  ++stats_.poll_rounds;
  ++poll_round_depth_;
  p.cpu = &cpu;
  p.src = 0;
  p.progress = false;
  p.at = Poller::At::kNext;
}

void Server::close_round(marcel::Cpu& cpu) {
  if (--poll_round_depth_ == 0 && sources_dirty_) {
    sources_dirty_ = false;
    std::erase_if(sources_, [](const auto& e) { return !e->alive; });
  }
  cpu.engine_scope_exit();
}

SimDuration Server::after_round(Poller& p) {
  using Mode = Poller::Mode;
  if (p.mode == Mode::kOnce ||
      (p.mode == Mode::kCond ? p.cond->done() : !has_work())) {
    if (p.mode == Mode::kIdle) poll_owner_ = nullptr;  // everything completed
    p.at = Poller::At::kEnd;
    return 0;
  }
  p.at = Poller::At::kTop;
  return p.progress ? 0 : cfg_.poll_gap;  // busy-wait pacing
}

std::size_t Server::next_source(std::size_t i) const noexcept {
  while (i < sources_.size() && !sources_[i]->alive) ++i;
  return i;
}

void Server::burn_chunks(Poller& p, SimDuration d) {
  // Re-fetch the CPU per chunk: a preemption may migrate a thread.
  while (d > 0) d = marcel::this_thread::cpu().poll_chunk(d, p);
}

bool Server::run_pass(Poller& p) {
  using At = Poller::At;
  for (;;) {
    switch (p.at) {
      case At::kTop:
        return true;
      case At::kEnd:
        return false;
      case At::kNext:
        p.src = next_source(p.src);
        if (p.src < sources_.size()) {
          p.at = At::kBurned;
          burn_chunks(p, cfg_.ltask_poll_cost);
        } else {
          close_round(marcel::this_thread::cpu());
          burn_chunks(p, after_round(p));
        }
        break;
      case At::kBurned: {
        SourceEntry& e = *sources_[p.src++];
        p.at = At::kNext;
        // The burn can preempt; another fiber may have removed the source.
        if (e.alive) p.progress = poll_source(e, *p.cpu) || p.progress;
        break;
      }
    }
  }
}

bool Server::top_quiet(const Poller& p, marcel::Cpu& cpu) const {
  if (!posted_.empty() || cpu.runnable() > 0) return false;
  if (p.mode == Poller::Mode::kCond) {
    return !p.cond->done() && cpu.engine().now() < p.deadline;
  }
  // The service loop calls the idle hook again, which polls on this core.
  return cpu.service_repolls() && has_work() &&
         (poll_owner_ == nullptr || poll_owner_ == &cpu ||
          !poll_owner_->idle_polling());
}

SimDuration Server::Poller::boundary(marcel::Cpu& c) {
  Server& s = server;
  const SimDuration quantum = s.node_.config().quantum;
  if (s.cfg_.ltask_poll_cost > quantum || s.cfg_.poll_gap > quantum) {
    return 0;  // a burn of several chunks: the fiber steps it
  }
  bool opened = false;
  for (;;) {
    switch (at) {
      case At::kEnd:
        return 0;
      case At::kTop:
        // A pass that burnt nothing ends here; the fiber takes it on.
        if (opened || !s.top_quiet(*this, c)) return 0;
        if (mode == Mode::kIdle) {
          c.service_round_begin();
          s.poll_owner_ = &c;
        }
        s.open_round(*this, c);
        c.count_engine_poll();
        opened = true;
        break;
      case At::kNext:
        src = s.next_source(src);
        if (src < s.sources_.size()) {
          at = At::kBurned;
          if (s.cfg_.ltask_poll_cost > 0) return s.cfg_.ltask_poll_cost;
        } else {
          s.close_round(c);
          if (const SimDuration gap = s.after_round(*this); gap > 0) {
            return gap;
          }
        }
        break;
      case At::kBurned: {
        // A completion during the burn changes nothing here: the fiber
        // still polls this source and finishes the round, and
        // after_round() sees it.
        SourceEntry& e = *s.sources_[src];
        if (e.alive) {
          if (e.src.poll_empty == nullptr || !e.src.poll_empty()) return 0;
          ++e.stats->polls;
        }
        ++src;
        at = At::kNext;
        break;
      }
    }
  }
}

// ------------------------------------------------------------------ hooks

bool Server::idle_hook(marcel::Cpu& cpu) {
  if (!has_work()) return false;
  // Tasklet-style exclusivity: a single core polls a given server at a
  // time (§2.1 — events are processed one at a time, under light locks).
  if (poll_owner_ != nullptr && poll_owner_ != &cpu &&
      poll_owner_->idle_polling()) {
    return false;  // someone else is on it; this core can halt
  }
  poll_owner_ = &cpu;
  Poller p(*this, Poller::Mode::kIdle);
  const bool posted = run_posted(cpu);
  open_round(p, cpu);
  p.progress = posted;
  return run_pass(p) && has_work();
}

void Server::tick_hook(marcel::Cpu& cpu) {
  // Timer interrupts are one of PIOMan's trigger points (§3.1).  When
  // configured, pending submissions that found no idle core are dispatched
  // here, bounding their latency by one tick period — at the price of
  // preempting the computing thread (see Config::offload_on_tick).
  if (cfg_.offload_on_tick && !posted_.empty()) {
    offload_tasklet_.schedule_on(cpu);
  }
  update_method();
}

void Server::switch_hook(marcel::Cpu& cpu) {
  // A core picked up new work; if it was the poller, hand the role to
  // another idle core (engine context — keep it cheap).
  if (armed_ == 0) return;
  if (poll_owner_ == &cpu) poll_owner_ = nullptr;
  update_method();
}

void Server::update_method() {
  const bool want_block = cfg_.enable_blocking_lwp && critical_ > 0 &&
                          block_support_.enable_interrupts != nullptr &&
                          node_.idle_cpu_count() == 0;
  const Method want = want_block ? Method::kBlocking : Method::kPolling;
  if (want == method_) return;
  method_ = want;
  ++stats_.method_switches;
  if (method_ == Method::kBlocking) {
    if (!interrupts_enabled_ && block_support_.enable_interrupts) {
      interrupts_enabled_ = true;
      block_support_.enable_interrupts();
    }
  } else {
    if (interrupts_enabled_ && block_support_.disable_interrupts) {
      interrupts_enabled_ = false;
      block_support_.disable_interrupts();
    }
  }
}

// ---------------------------------------------------------------- offload

void Server::offload_tasklet_body() {
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT(cpu != nullptr);
  run_posted(*cpu);
}

// -------------------------------------------------------------------- LWP

void Server::lwp_body() {
  for (;;) {
    lwp_waiting_ = true;
    // Historical race window: on real hardware an interrupt can land after
    // the LWP announces it is waiting but before it is actually asleep.
    // The fuzzer opens this window; on_interrupt() must then NOT wake us
    // (we are not blocked yet) — the re-check below picks the event up.
    sim::fuzz::interleave_point("piom-lwp/pre-block");
    if (!lwp_has_event_) {
      // The event-flag check and the block are atomic (no suspension in
      // between): an interrupt delivered in the window above set the flag
      // and is observed here instead of being stranded.
      lockdep::check_block(lwp_has_event_ || shutdown_, "piom-lwp event flag");
      // Block in the (modelled) kernel until an interrupt arrives.
      marcel::this_thread::cpu().block_current();
    }
    lwp_waiting_ = false;
    lwp_has_event_ = false;
    if (shutdown_) return;
    // Interrupt handling + kernel wakeup path.
    {
      marcel::EngineScope scope;
      marcel::this_thread::compute(cfg_.interrupt_cost);
    }
    run_posted(marcel::this_thread::cpu());
    progress_once();
  }
}

void Server::on_interrupt() {
  ++stats_.interrupts;
  if (lwp_ == nullptr) return;
  lwp_has_event_ = true;
  // Only wake the LWP once it is really asleep.  In the pre-block window
  // (lwp_waiting_ set, fiber not yet blocked) waking would trip the
  // scheduler's "waking a thread that is not blocked" invariant and strand
  // the event; the LWP's pre-block re-check observes the flag instead.
  if (lwp_waiting_ && lwp_->state() == marcel::ThreadState::kBlocked) {
    lwp_waiting_ = false;
    node_.wake(*lwp_);  // realtime priority: preempts a busy core
  }
}

void Server::notify_work() { node_.kick_idle_cpus(); }

void Server::bind_metrics(MetricsRegistry& registry,
                          std::string_view prefix) {
  const std::string p(prefix);
  metrics_ = &registry;
  metrics_prefix_ = p;
  for (auto& [name, st] : source_stats_) {
    registry.bind_counter(p + "/source/" + name + "/polls", &st.polls);
    registry.bind_counter(p + "/source/" + name + "/hits", &st.hits);
  }
  registry.bind_counter(p + "/poll/rounds", &stats_.poll_rounds);
  registry.bind_counter(p + "/offload/posted", &stats_.posted_items);
  registry.bind_counter(p + "/offload/offloaded", &stats_.posted_offloaded);
  registry.bind_counter(p + "/offload/flushed", &stats_.posted_flushed);
  registry.bind_counter(p + "/interrupts", &stats_.interrupts);
  registry.bind_counter(p + "/method_switches", &stats_.method_switches);
  registry.bind_counter(p + "/cond/waits", &stats_.cond_waits);
  registry.bind_counter(p + "/cond/passive_blocks",
                        &stats_.cond_passive_blocks);
  registry.bind_gauge(p + "/method_blocking", [this] {
    return method_ == Method::kBlocking ? 1.0 : 0.0;
  });
}

void Server::shutdown() {
  shutdown_ = true;
  if (lwp_ == nullptr) return;
  lwp_has_event_ = true;  // pre-block re-check observes this if not asleep
  if (lwp_waiting_ && lwp_->state() == marcel::ThreadState::kBlocked) {
    lwp_waiting_ = false;
    node_.wake(*lwp_);
  }
}

}  // namespace pm2::piom
