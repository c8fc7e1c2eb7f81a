#include "nmad/engine_lock.hpp"

#include "common/assert.hpp"
#include "marcel/cpu.hpp"
#include "marcel/lock_profile.hpp"
#include "marcel/lockdep.hpp"
#include "sim/fiber.hpp"

namespace pm2::nm {
namespace {

constexpr const char* kClass = "nm::EngineLock";

void report_acquired(const void* lock, bool contended) {
  lockdep::spin_acquired(lock, kClass);
  lock_profile::note_acquired(lock, kClass, contended);
}

void report_released(const void* lock) {
  lockdep::released(lock);
  lock_profile::note_released(lock);
}

}  // namespace

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
      lock_profile::note_contended(this, kClass);
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
  report_acquired(this, contended);
}

void EngineLock::unlock() {
  PM2_ASSERT_MSG(owner_ == sim::Fiber::current(),
                 "EngineLock released by a non-owner");
  if (--depth_ > 0) return;
  owner_ = nullptr;
  report_released(this);
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  PM2_ASSERT(cpu != nullptr);
  cpu->preempt_enable();
}

// A parked poll round may run nested in another fiber's run-ahead
// (sim::Engine::run_ahead()), so the calling fiber is not checked here.
void EngineLock::note_idle(std::uint64_t n) const noexcept {
  PM2_ASSERT(owner_ == nullptr && !lockdep::enabled());
  lock_profile::note_idle(this, kClass, n);
}

bool EngineLock::held_by_caller() const noexcept {
  return owner_ != nullptr && owner_ == sim::Fiber::current();
}

}  // namespace pm2::nm
