#include "marcel/node.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "marcel/lockdep.hpp"
#include "marcel/runtime.hpp"

namespace pm2::marcel {

Node::Node(Runtime& rt, unsigned index, const Config& cfg,
           sim::Engine& engine)
    : rt_(rt), index_(index), cfg_(cfg), engine_(engine) {
  cpus_.reserve(cfg.cpus_per_node);
  for (unsigned i = 0; i < cfg.cpus_per_node; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(*this, i, cfg, engine));
  }
}

Thread& Node::spawn(Thread::Fn fn, Priority prio, std::string name,
                    int cpu_hint) {
  auto thread = std::make_unique<Thread>(*this, std::move(fn), prio,
                                         std::move(name), cfg_.stack_bytes);
  Thread& ref = *thread;
  threads_.push_back(std::move(thread));
  unsigned target;
  if (cpu_hint >= 0) {
    PM2_ASSERT(static_cast<unsigned>(cpu_hint) < cpu_count());
    target = static_cast<unsigned>(cpu_hint);
  } else {
    target = next_spawn_cpu_;
    next_spawn_cpu_ = (next_spawn_cpu_ + 1) % cpu_count();
  }
  cpus_[target]->enqueue(ref, /*front=*/false);
  return ref;
}

void Node::wake(Thread& t) {
  PM2_ASSERT_MSG(t.state_ == ThreadState::kBlocked,
                 "waking a thread that is not blocked");
  // Placement: a fully idle core reacts fastest; an idle-polling core next;
  // otherwise fall back to the thread's last CPU (cache affinity).
  Cpu* target = nullptr;
  if (t.last_cpu_ != nullptr && t.last_cpu_->idle()) {
    target = t.last_cpu_;
  }
  if (target == nullptr) {
    for (auto& c : cpus_) {
      if (c->idle()) {
        target = c.get();
        break;
      }
    }
  }
  if (target == nullptr) {
    for (auto& c : cpus_) {
      if (c->idle_polling()) {
        target = c.get();
        break;
      }
    }
  }
  if (target == nullptr) {
    target = t.last_cpu_ != nullptr ? t.last_cpu_ : cpus_[0].get();
  }
  const bool realtime = t.priority() == Priority::kRealtime;
  target->enqueue(t, /*front=*/realtime);
}

Cpu* Node::find_idle_cpu() noexcept {
  for (auto& c : cpus_) {
    if (c->idle()) return c.get();
  }
  for (auto& c : cpus_) {
    if (c->idle_polling()) return c.get();
  }
  return nullptr;
}

unsigned Node::idle_cpu_count() const noexcept {
  unsigned n = 0;
  for (const auto& c : cpus_) {
    if (c->idle() || c->idle_polling()) ++n;
  }
  return n;
}

int Node::add_idle_hook(IdleHook hook) {
  const int id = idle_hooks_.insert(std::move(hook));
  kick_idle_cpus();
  return id;
}

void Node::remove_idle_hook(int id) { idle_hooks_.erase(id); }

int Node::add_tick_hook(TickHook hook) {
  for (auto& c : cpus_) c->resume_tick();
  return tick_hooks_.insert(std::move(hook));
}

void Node::remove_tick_hook(int id) { tick_hooks_.erase(id); }

int Node::add_switch_hook(SwitchHook hook) {
  return switch_hooks_.insert(std::move(hook));
}

void Node::remove_switch_hook(int id) { switch_hooks_.erase(id); }

bool Node::run_idle_hooks(Cpu& cpu) {
  bool any = false;
  idle_hooks_.for_each([&](IdleHook& fn) { any = fn(cpu) || any; });
  return any;
}

void Node::run_tick_hooks(Cpu& cpu) {
  lockdep::engine_context_enter("tick-hooks");
  tick_hooks_.for_each([&](TickHook& fn) { fn(cpu); });
  lockdep::engine_context_exit();
}

void Node::run_switch_hooks(Cpu& cpu) {
  lockdep::engine_context_enter("switch-hooks");
  switch_hooks_.for_each([&](SwitchHook& fn) { fn(cpu); });
  lockdep::engine_context_exit();
}

void Node::offer_steal(Cpu& origin) {
  if (!cfg_.work_stealing) return;
  for (auto& c : cpus_) {
    if (c.get() == &origin) continue;
    if (c->idle() || c->idle_polling()) {
      c->note_new_work();
      c->kick(cfg_.wakeup_cost);
      return;
    }
  }
}

void Node::wake_spinners(const Cpu* except) {
  if (spinners_ == 0) return;
  for (auto& c : cpus_) {
    if (c.get() != except) c->spin_wake();
  }
}

void Node::kick_idle_cpus() {
  for (auto& c : cpus_) {
    c->note_new_work();
    if (c->idle()) c->kick(cfg_.wakeup_cost);
  }
}

std::size_t Node::live_threads() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(threads_.begin(), threads_.end(),
                    [](const auto& t) { return !t->finished(); }));
}

void Node::reap_finished() {
  std::erase_if(threads_, [](const auto& t) { return t->finished(); });
}

void Node::reap(Thread& t) {
  PM2_ASSERT_MSG(t.finished(), "reap of a live thread");
  std::erase_if(threads_, [&t](const auto& p) { return p.get() == &t; });
}

}  // namespace pm2::marcel
