#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/assert.hpp"

// Hand-rolled stack switches are invisible to AddressSanitizer: it keeps
// shadow state per stack and must be notified before and after every
// switch, or fiber frames read as poisoned memory.
#if defined(__SANITIZE_ADDRESS__)
#define PM2_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PM2_ASAN_FIBERS 1
#endif
#endif

#if defined(PM2_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace pm2::sim {
namespace {

thread_local Fiber* t_current = nullptr;

std::size_t page_size() noexcept {
  static const auto ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

// Stack recycling.  A destroyed fiber's mapping — guard page still
// PROT_NONE — goes on a per-host-thread free list keyed by mapping size,
// and the next same-size fiber takes it instead of paying mmap + mprotect
// + first-touch faults + munmap.  The list only ever holds stacks that
// were live at once, so it never exceeds the peak number of live fibers.
//
// Teardown order: a thread's thread_local destructors run before static
// destructors (and a worker thread's pool dies with the thread), yet a
// Fiber owned by a static or outliving object may be destroyed after
// that.  The pool's destructor unmaps what it holds and raises
// t_pool_gone; both t_pool_gone and t_mapped are trivially destructible,
// so they stay readable afterwards and later fibers munmap directly.
thread_local bool t_pool_gone = false;
thread_local std::size_t t_mapped = 0;  // live + pooled mappings

struct StackPool {
  struct Bucket {
    std::size_t alloc_size;
    std::vector<void*> stacks;
  };
  std::vector<Bucket> buckets;  // one per distinct mapping size seen

  std::vector<void*>& bucket(std::size_t alloc_size) {
    for (Bucket& b : buckets) {
      if (b.alloc_size == alloc_size) return b.stacks;
    }
    return buckets.emplace_back(Bucket{alloc_size, {}}).stacks;
  }

  ~StackPool() {
    for (Bucket& b : buckets) {
      for (void* mem : b.stacks) ::munmap(mem, b.alloc_size);
      t_mapped -= b.stacks.size();
    }
    t_pool_gone = true;
  }
};

StackPool& stack_pool() {
  thread_local StackPool pool;
  return pool;
}

void* acquire_stack(std::size_t alloc_size) {
  if (!t_pool_gone) {
    std::vector<void*>& stacks = stack_pool().bucket(alloc_size);
    if (!stacks.empty()) {
      void* mem = stacks.back();
      stacks.pop_back();
      return mem;
    }
  }
  void* mem = ::mmap(nullptr, alloc_size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  PM2_ASSERT_MSG(mem != MAP_FAILED, "fiber stack mmap failed");
  PM2_ASSERT(::mprotect(mem, page_size(), PROT_NONE) == 0);
  ++t_mapped;
  return mem;
}

void release_stack(void* mem, std::size_t alloc_size) {
  if (!t_pool_gone) {
    stack_pool().bucket(alloc_size).push_back(mem);
    return;
  }
  ::munmap(mem, alloc_size);
  --t_mapped;
}

}  // namespace

#if defined(__x86_64__)

// void pm2_ctx_switch(void** save_sp /*rdi*/, void* load_sp /*rsi*/)
//
// Saves the SysV callee-saved register set plus the SSE/x87 control words on
// the current stack, publishes the stack pointer through *save_sp, then
// installs load_sp and restores the same layout.  The `ret` at the end
// resumes wherever the target context previously saved itself — or, for a
// fresh fiber, enters pm2_fiber_boot.
asm(R"(
.text
.align 16
.globl pm2_ctx_switch
.type pm2_ctx_switch, @function
pm2_ctx_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq  $8, %rsp
  stmxcsr (%rsp)
  fnstcw  4(%rsp)
  movq  %rsp, (%rdi)
  movq  %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw   4(%rsp)
  addq  $8, %rsp
  popq  %r15
  popq  %r14
  popq  %r13
  popq  %r12
  popq  %rbx
  popq  %rbp
  ret
.size pm2_ctx_switch, .-pm2_ctx_switch

.align 16
.globl pm2_fiber_boot
.type pm2_fiber_boot, @function
pm2_fiber_boot:
  movq %r12, %rdi
  jmp  pm2_fiber_entry_trampoline
.size pm2_fiber_boot, .-pm2_fiber_boot
)");

extern "C" {
void pm2_ctx_switch(void** save_sp, void* load_sp);
void pm2_fiber_boot();
}

#endif  // __x86_64__

void fiber_entry_trampoline(Fiber* self);

extern "C" void pm2_fiber_entry_trampoline(Fiber* self) {
  fiber_entry_trampoline(self);
}

void fiber_entry_trampoline(Fiber* self) {
#if defined(PM2_ASAN_FIBERS)
  // First entry: no fake stack to restore (the fiber never left), but the
  // resumer's stack bounds must be captured for the suspend back.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
  self->body_();
  self->finished_ = true;
  // Return control to the resumer forever; resuming a finished fiber is a
  // caller bug caught in resume().
  for (;;) Fiber::suspend();
}

Fiber::Fiber(Body body, std::size_t stack_bytes) : body_(std::move(body)) {
  PM2_ASSERT(body_ != nullptr);
  const std::size_t ps = page_size();
  stack_size_ = round_up(stack_bytes, ps);
  alloc_size_ = stack_size_ + ps;  // one guard page at the low end
  void* mem = acquire_stack(alloc_size_);
  stack_base_ = mem;
#if defined(PM2_ASAN_FIBERS)
  // A recycled stack still carries the redzones of its previous owner's
  // frames (left behind by a fiber destroyed while suspended, or parked
  // in suspend() after finishing); clear them before reuse.
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(mem) + ps, stack_size_);
#endif

#if defined(__x86_64__)
  // Build the initial frame that pm2_ctx_switch will unwind on first resume.
  // Layout from sp_ upward:
  //   [ 0] mxcsr (4B) + x87 cw (4B)
  //   [ 8] r15  [16] r14  [24] r13  [32] r12 = this
  //   [40] rbx  [48] rbp
  //   [56] return address = pm2_fiber_boot
  //   [64] 0 (backtrace terminator)
  auto* top = static_cast<char*>(mem) + alloc_size_;
  top = reinterpret_cast<char*>(reinterpret_cast<std::uintptr_t>(top) & ~15ull);
  char* sp = top - 72;  // (sp+64) % 16 == 8 ⇒ ABI-correct at boot entry
  std::memset(sp, 0, 72);
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(sp + 0, &mxcsr, 4);
  std::memcpy(sp + 4, &fcw, 2);
  auto self = reinterpret_cast<std::uintptr_t>(this);
  std::memcpy(sp + 32, &self, 8);
  auto boot = reinterpret_cast<std::uintptr_t>(&pm2_fiber_boot);
  std::memcpy(sp + 56, &boot, 8);
  sp_ = sp;
#else
#error "Non-x86-64 platforms require a ucontext fallback (not built here)."
#endif
}

Fiber::~Fiber() {
  PM2_ASSERT_MSG(!running_, "destroying a running fiber");
  if (stack_base_ != nullptr) release_stack(stack_base_, alloc_size_);
}

void Fiber::resume() {
  PM2_ASSERT_MSG(!finished_, "resuming a finished fiber");
  PM2_ASSERT_MSG(!running_, "fiber is already running (recursive resume)");
  parent_ = t_current;
  t_current = this;
  running_ = true;
  started_ = true;
#if defined(PM2_ASAN_FIBERS)
  void* resumer_fake = nullptr;
  __sanitizer_start_switch_fiber(
      &resumer_fake, static_cast<char*>(stack_base_) + (alloc_size_ - stack_size_),
      stack_size_);
#endif
  pm2_ctx_switch(&resumer_sp_, sp_);
  // Back from the fiber: it suspended or finished.
#if defined(PM2_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(resumer_fake, nullptr, nullptr);
#endif
  t_current = parent_;
}

void Fiber::suspend() {
  Fiber* self = t_current;
  PM2_ASSERT_MSG(self != nullptr, "suspend() outside a fiber");
  self->running_ = false;
#if defined(PM2_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fake_,
                                 self->asan_resumer_bottom_,
                                 self->asan_resumer_size_);
#endif
  pm2_ctx_switch(&self->sp_, self->resumer_sp_);
  // Resumed again — possibly by a different context than last time, so
  // re-capture the resumer's stack bounds.
#if defined(PM2_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(self->asan_fake_,
                                  &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
  self->running_ = true;
}

Fiber* Fiber::current() noexcept { return t_current; }

std::size_t Fiber::stacks_mapped() noexcept { return t_mapped; }

std::size_t Fiber::stacks_pooled() noexcept {
  std::size_t n = 0;
  if (!t_pool_gone) {
    for (const StackPool::Bucket& b : stack_pool().buckets) {
      n += b.stacks.size();
    }
  }
  return n;
}

}  // namespace pm2::sim
