#include "nmad/engine_lock.hpp"

#include "common/assert.hpp"
#include "common/lockdep_hook.hpp"
#include "marcel/cpu.hpp"
#include "sim/fiber.hpp"

namespace pm2::nm {

void EngineLock::lock() {
  const sim::Fiber* self = sim::Fiber::current();
  PM2_ASSERT_MSG(self != nullptr,
                 "EngineLock acquired outside a fiber (engine-context "
                 "completions must stay outside the lock)");
  if (owner_ == self) {
    ++depth_;
    return;
  }
  bool contended = false;
  while (owner_ != nullptr) {
    if (!contended) {
      contended = true;
      lockdep_hook::contended(this, "nm::EngineLock");
    }
    // Burn spin granules; the holder runs on another core (it cannot be
    // preempted while holding) and eventually releases.  Granules that
    // still find the lock held are re-armed in engine context.
    marcel::this_thread::spin_granule(spin_ > 0 ? spin_ : 1, &owner_);
  }
  owner_ = self;
  depth_ = 1;
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT(cpu != nullptr);
  cpu->preempt_disable();
  lockdep_hook::acquired(this, "nm::EngineLock", contended);
}

void EngineLock::unlock() {
  PM2_ASSERT_MSG(owner_ == sim::Fiber::current(),
                 "EngineLock released by a non-owner");
  if (--depth_ > 0) return;
  owner_ = nullptr;
  lockdep_hook::released(this);
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT(cpu != nullptr);
  cpu->preempt_enable();
}

void EngineLock::note_engine_acquire() const noexcept {
  PM2_ASSERT(owner_ == nullptr && sim::Fiber::current() == nullptr);
  lockdep_hook::acquired(this, "nm::EngineLock", false);
}

void EngineLock::note_engine_release() const noexcept {
  PM2_ASSERT(owner_ == nullptr && sim::Fiber::current() == nullptr);
  lockdep_hook::released(this);
}

bool EngineLock::held_by_caller() const noexcept {
  return owner_ != nullptr && owner_ == sim::Fiber::current();
}

}  // namespace pm2::nm
