// Stackful coroutines ("fibers") for the discrete-event simulator.
//
// Every simulated activity that consumes CPU time — application threads,
// per-core service loops (tasklets + idle polling), blocking LWPs — runs on
// a fiber.  Fibers are resumed from the engine context and suspend back to
// whoever resumed them.  On x86-64 the switch is a hand-rolled callee-saved
// register swap (~20 instructions, no syscalls); other platforms fall back
// to POSIX ucontext.
//
// Stacks are mmap'd with a PROT_NONE guard page at the low end.  A
// destroyed fiber's stack goes on a free list owned by the host thread
// that destroys it, and the next fiber of the same size on that thread
// reuses it.  The per-thread stack counts assume a fiber is destroyed on
// the thread that created it, as every simulator fiber is.
#pragma once

#include <cstddef>
#include <functional>

namespace pm2::sim {

class Fiber {
 public:
  using Body = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// The body starts executing at the first resume().
  explicit Fiber(Body body, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber until it suspends or finishes.
  /// May be called from the engine context or from another fiber
  /// (nested resume); control returns here on suspend.
  void resume();

  /// Called from inside a fiber: return control to the resumer.
  static void suspend();

  /// The fiber currently executing on this host thread, or nullptr when in
  /// engine context.
  [[nodiscard]] static Fiber* current() noexcept;

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Usable stack size in bytes (the requested size rounded up to whole
  /// pages; the guard page is not included).
  [[nodiscard]] std::size_t stack_bytes() const noexcept { return stack_size_; }

  /// Stack mappings this host thread holds: live fibers plus recycled
  /// stacks waiting in its free list.
  [[nodiscard]] static std::size_t stacks_mapped() noexcept;
  /// Recycled stacks in this host thread's free list.
  [[nodiscard]] static std::size_t stacks_pooled() noexcept;

 private:
  static void entry_point(Fiber* self);
  friend void fiber_entry_trampoline(Fiber*);

  Body body_;
  void* stack_base_ = nullptr;   // mmap'd region (includes guard page)
  std::size_t alloc_size_ = 0;   // total mapping size
  std::size_t stack_size_ = 0;   // usable stack bytes
  void* sp_ = nullptr;           // saved stack pointer while suspended
  void* resumer_sp_ = nullptr;   // where to return on suspend
  Fiber* parent_ = nullptr;      // fiber that resumed us (nesting)
  // AddressSanitizer fiber-switch bookkeeping; unused otherwise.  ASan must
  // be told about every stack switch or it reports wild stack-use-after-
  // return and misattributes redzones.
  void* asan_fake_ = nullptr;            // fake-stack handle while suspended
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
};

}  // namespace pm2::sim
