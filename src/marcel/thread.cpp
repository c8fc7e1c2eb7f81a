#include "marcel/thread.hpp"

#include <atomic>
#include <utility>

#include "common/assert.hpp"
#include "marcel/cpu.hpp"
#include "marcel/node.hpp"

namespace pm2::marcel {

std::uint64_t Thread::next_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Thread::Thread(Node& node, Fn fn, Priority prio, std::string name,
               std::size_t stack_bytes)
    : node_(node),
      fn_(std::move(fn)),
      prio_(prio),
      name_(std::move(name)),
      id_(next_id()),
      fiber_([this] { fn_(); }, stack_bytes) {}

void Thread::join() {
  Thread* cur = this_thread::self();
  PM2_ASSERT_MSG(cur != nullptr, "join() outside a marcel thread");
  PM2_ASSERT_MSG(cur != this, "thread joining itself");
  if (finished()) return;
  joiners_.push_back(*cur);
  detail::current_cpu()->block_current();
  PM2_ASSERT(finished());
}

namespace this_thread {

Thread* self() noexcept { return detail::current_thread(); }

Cpu& cpu() noexcept {
  Cpu* c = detail::current_cpu();
  PM2_ASSERT_MSG(c != nullptr, "not running on a simulated CPU");
  return *c;
}

void compute(SimDuration d) {
  while (d > 0) {
    // Re-fetch each chunk: a preemption may have migrated the thread.
    d = cpu().compute_chunk(d);
  }
}

void spin_granule(SimDuration step, const void* const* word) {
  SimDuration d = step;
  while (d > 0) d = cpu().spin_chunk(d, step, word);
}

void yield() { cpu().yield_current(); }

void sleep(SimDuration d) {
  Thread* t = self();
  PM2_ASSERT_MSG(t != nullptr, "sleep() outside a marcel thread");
  Cpu& c = cpu();
  Node& n = t->node();
  c.engine().schedule_after(d, [&n, t] { n.wake(*t); });
  c.block_current();
}

}  // namespace this_thread
}  // namespace pm2::marcel
