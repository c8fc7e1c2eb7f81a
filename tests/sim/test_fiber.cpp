// Stackful fiber switching: entry, suspend/resume cycles, nesting, locals
// surviving across switches, many fibers, deep stacks — and stack
// recycling: reuse of a destroyed fiber's stack, size keying, the guard
// page on a recycled stack, and per-thread pool teardown.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/fiber.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PM2_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PM2_TEST_ASAN 1
#endif
#endif
#if defined(PM2_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace pm2::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, SuspendResumeRoundTrips) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::suspend();
    trace.push_back(3);
    Fiber::suspend();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalsSurviveSuspension) {
  std::string out;
  Fiber f([&] {
    std::string local = "hello";
    int counter = 7;
    Fiber::suspend();
    local += " world";
    counter *= 2;
    Fiber::suspend();
    out = local + std::to_string(counter);
  });
  f.resume();
  f.resume();
  f.resume();
  EXPECT_EQ(out, "hello world14");
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] {
    seen = Fiber::current();
    Fiber::suspend();
  });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
}

TEST(Fiber, NestedResume) {
  std::vector<int> trace;
  Fiber inner([&] {
    trace.push_back(2);
    Fiber::suspend();
    trace.push_back(4);
  });
  Fiber outer([&] {
    trace.push_back(1);
    inner.resume();  // fiber resuming another fiber
    trace.push_back(3);
    inner.resume();
    trace.push_back(5);
  });
  outer.resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 10;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[i];
        Fiber::suspend();
      }
    }));
  }
  for (int r = 0; r < kRounds; ++r) {
    for (auto& f : fibers) f->resume();
  }
  for (auto& f : fibers) f->resume();  // let bodies return
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_EQ(counters[i], kRounds);
    EXPECT_TRUE(fibers[i]->finished());
  }
}

TEST(Fiber, DeepStackUsage) {
  // Recursion touching ~128 KiB of stack must fit in the default stack.
  struct Recur {
    static int go(int depth) {
      char pad[1024];
      pad[0] = static_cast<char>(depth);
      if (depth == 0) return pad[0];
      return go(depth - 1) + (pad[0] != 0 ? 1 : 0);
    }
  };
  int result = -1;
  Fiber f([&] { result = Recur::go(100); });
  f.resume();
  EXPECT_EQ(result, 100);
}

TEST(Fiber, FloatingPointSurvivesSwitch) {
  double a = 0.0;
  Fiber f([&] {
    double x = 1.5;
    Fiber::suspend();
    x *= 2.0;
    a = x;
  });
  f.resume();
  const double noise = 3.14159 * 2.71828;  // clobber FP regs in between
  f.resume();
  EXPECT_DOUBLE_EQ(a, 3.0);
  EXPECT_GT(noise, 8.0);
}

TEST(Fiber, ResumeFinishedAborts) {
  Fiber f([] {});
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_DEATH(f.resume(), "finished");
}

TEST(Fiber, SuspendOutsideFiberAborts) {
  EXPECT_DEATH(Fiber::suspend(), "outside");
}

// ------------------------------------------------------- stack recycling

// Frame address of the fiber body, one fixed depth above the boot frame:
// two fibers built here on the same stack report the same address.
std::unique_ptr<Fiber> frame_probe(std::uintptr_t* out,
                                   std::size_t stack_bytes =
                                       Fiber::kDefaultStackBytes) {
  return std::make_unique<Fiber>(
      [out] {
        *out = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      },
      stack_bytes);
}

int recurse(int depth) {
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) return pad[0];
  return recurse(depth - 1) + (pad[0] != 0 ? 1 : 0);
}

// Recurses `depth` frames deep, then suspends there.
int recurse_and_suspend(int depth) {
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) {
    Fiber::suspend();
    return pad[0];
  }
  return recurse_and_suspend(depth - 1) + (pad[0] != 0 ? 1 : 0);
}

// The LocalsSurviveSuspension and FloatingPointSurvivesSwitch checks, on
// whatever stack the pool hands out next.
void expect_fresh_fiber_runs_correctly() {
  std::string out;
  double fp = 0.0;
  Fiber f([&] {
    std::string local = "hello";
    int counter = 7;
    double x = 1.5;
    Fiber::suspend();
    local += " world";
    counter *= 2;
    x *= 2.0;
    Fiber::suspend();
    out = local + std::to_string(counter);
    fp = x;
  });
  f.resume();
  f.resume();
  const double noise = 3.14159 * 2.71828;  // clobber FP regs in between
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(out, "hello world14");
  EXPECT_DOUBLE_EQ(fp, 3.0);
  EXPECT_GT(noise, 8.0);
}

TEST(FiberStackPool, SameSizeFiberReusesDestroyedStack) {
  std::uintptr_t first = 0, second = 0;
  auto f = frame_probe(&first);
  f->resume();
  const std::size_t mapped = Fiber::stacks_mapped();
  const std::size_t pooled = Fiber::stacks_pooled();
  f.reset();
  EXPECT_EQ(Fiber::stacks_pooled(), pooled + 1);
  EXPECT_EQ(Fiber::stacks_mapped(), mapped);

  auto g = frame_probe(&second);
  EXPECT_EQ(Fiber::stacks_pooled(), pooled);
  EXPECT_EQ(Fiber::stacks_mapped(), mapped) << "a new stack was mapped";
  g->resume();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(second, first) << "the fiber did not get the recycled stack";
}

TEST(FiberStackPool, DifferentSizeNeverTakesRecycledStack) {
  constexpr std::size_t kSmall = 64 * 1024;
  std::uintptr_t big = 0, small = 0;
  auto f = frame_probe(&big);
  f->resume();
  f.reset();  // leaves a default-size stack in the pool
  const std::size_t mapped = Fiber::stacks_mapped();
  const std::size_t pooled = Fiber::stacks_pooled();
  ASSERT_GT(pooled, 0u);

  auto g = frame_probe(&small, kSmall);
  EXPECT_EQ(g->stack_bytes(), kSmall);
  EXPECT_EQ(Fiber::stacks_mapped(), mapped + 1);
  EXPECT_EQ(Fiber::stacks_pooled(), pooled);
  g->resume();
  EXPECT_NE(small, big);
  g.reset();
  EXPECT_EQ(Fiber::stacks_pooled(), pooled + 1);
  EXPECT_EQ(Fiber::stacks_mapped(), mapped + 1);

  // And a default-size fiber skips the small stack for its own size.
  std::uintptr_t again = 0;
  auto h = frame_probe(&again);
  h->resume();
  EXPECT_EQ(again, big);
  EXPECT_EQ(Fiber::stacks_mapped(), mapped + 1);
}

// Guard page of the stack under test, for the SIGSEGV handler below.
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

void report_fault(int /*sig*/, siginfo_t* info, void* /*ctx*/) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const char* msg = addr >= g_guard_lo && addr < g_guard_hi
                        ? "fault on guard page\n"
                        : "fault outside guard page\n";
  (void)!::write(2, msg, std::strlen(msg));
  ::_exit(1);
}

TEST(FiberStackPool, OverflowOnRecycledStackHitsGuardPage) {
  EXPECT_DEATH(
      {
        std::uintptr_t frame = 0;
        auto probe = frame_probe(&frame);
        probe->resume();
        probe.reset();
        const std::size_t mapped = Fiber::stacks_mapped();
        Fiber f([] { recurse(1 << 22); });
        // A freshly mapped stack would not test the recycled guard page;
        // exiting cleanly fails the death test.
        if (Fiber::stacks_mapped() != mapped) std::exit(0);
        // The probe's body frame sits in the top page of the mapping; the
        // guard page is the mapping's lowest page.
        const auto ps = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
        const std::uintptr_t top = (frame + ps) & ~(ps - 1);
        g_guard_hi = top - f.stack_bytes();
        g_guard_lo = g_guard_hi - ps;
        // The overflowing fiber has no stack left to run a handler on.
        static std::vector<char> alt(64 * 1024);
        stack_t ss{};
        ss.ss_sp = alt.data();
        ss.ss_size = alt.size();
        ::sigaltstack(&ss, nullptr);
        struct sigaction sa{};
        sa.sa_sigaction = report_fault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        ::sigaction(SIGSEGV, &sa, nullptr);
        f.resume();
      },
      "fault on guard page");
}

TEST(FiberStackPool, RecycledStackAfterDeepFinishRunsCorrectly) {
  int result = -1;
  auto f = std::make_unique<Fiber>([&] { result = recurse(200); });
  f->resume();
  EXPECT_EQ(result, 200);
  f.reset();
  const std::size_t mapped = Fiber::stacks_mapped();
  expect_fresh_fiber_runs_correctly();
  EXPECT_EQ(Fiber::stacks_mapped(), mapped);
}

TEST(FiberStackPool, RecycledStackAfterSuspendedDestroyRunsCorrectly) {
  auto f = std::make_unique<Fiber>([] { recurse_and_suspend(200); });
  f->resume();
  EXPECT_FALSE(f->finished());
  f.reset();  // destroyed mid-recursion: its frames stay on the stack
  const std::size_t mapped = Fiber::stacks_mapped();
  expect_fresh_fiber_runs_correctly();
  EXPECT_EQ(Fiber::stacks_mapped(), mapped);
#if defined(PM2_TEST_ASAN)
  // The dead frames' redzones must not follow the stack to its next owner.
  auto g = std::make_unique<Fiber>([] { recurse_and_suspend(200); });
  g->resume();
  g.reset();
  const void* poisoned = &mapped;
  Fiber h([&] {
    const char* here = static_cast<const char*>(__builtin_frame_address(0));
    poisoned = __asan_region_is_poisoned(
        const_cast<char*>(here) - 128 * 1024, 96 * 1024);
  });
  h.resume();
  EXPECT_EQ(poisoned, nullptr) << "stale redzones on a recycled stack";
#endif
}

TEST(FiberStackPool, ExitingThreadUnmapsItsStacks) {
  // Probe is constructed before the thread's pool, so it is destroyed
  // after it: the fiber it owns is released into a dead pool and must be
  // unmapped directly.
  struct Probe {
    std::unique_ptr<Fiber> late;
    std::size_t* mapped_at_exit = nullptr;
    ~Probe() {
      late.reset();
      *mapped_at_exit = Fiber::stacks_mapped();
    }
  };
  std::size_t mapped_at_exit = ~std::size_t{0};
  std::size_t mapped_in_thread = 0;
  std::uintptr_t pooled_frame = 0, late_frame = 0;
  std::thread t([&] {
    thread_local Probe probe;
    probe.mapped_at_exit = &mapped_at_exit;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < 4; ++i) fibers.push_back(frame_probe(&pooled_frame));
    for (auto& f : fibers) f->resume();
    fibers.clear();  // four stacks go to this thread's pool
    probe.late = frame_probe(&late_frame);
    probe.late->resume();
    mapped_in_thread = Fiber::stacks_mapped();
  });
  t.join();
  EXPECT_EQ(mapped_in_thread, 4u);
  EXPECT_EQ(mapped_at_exit, 0u);
  // Neither the pooled stacks nor the late fiber's are mapped any more.
  const auto ps = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  for (const std::uintptr_t frame : {pooled_frame, late_frame}) {
    ASSERT_NE(frame, 0u);
    unsigned char vec = 0;
    errno = 0;
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(frame & ~(ps - 1)), ps, &vec),
              -1);
    EXPECT_EQ(errno, ENOMEM) << "fiber stack still mapped after thread exit";
  }
}

}  // namespace
}  // namespace pm2::sim
