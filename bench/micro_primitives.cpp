// Ablation A7 — microbenchmarks of the building blocks: a lock-free ring,
// fiber context switch, event-engine dispatch, tasklet round trip.
// These are host-time benchmarks (google-benchmark), not simulated time.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/mpmc_ring.hpp"
#include "common/spinlock.hpp"
#include "marcel/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace {

// ---------------------------------------------------------------- queues

void BM_MpmcRingPushPop(benchmark::State& state) {
  pm2::MpmcRing<int> ring(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(42));
    benchmark::DoNotOptimize(ring.try_pop());
  }
}
BENCHMARK(BM_MpmcRingPushPop);

void BM_SpinlockUncontended(benchmark::State& state) {
  pm2::Spinlock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::ClobberMemory();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinlockUncontended);

// ---------------------------------------------------------------- fibers

void BM_FiberSwitchRoundTrip(benchmark::State& state) {
  // One suspend+resume pair per iteration: 2 context switches.
  pm2::sim::Fiber fiber([] {
    for (;;) pm2::sim::Fiber::suspend();
  });
  for (auto _ : state) {
    fiber.resume();
  }
}
BENCHMARK(BM_FiberSwitchRoundTrip);

void BM_FiberCreateDestroy(benchmark::State& state) {
  for (auto _ : state) {
    pm2::sim::Fiber fiber([] {});
    fiber.resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
}
BENCHMARK(BM_FiberCreateDestroy);

// ---------------------------------------------------------------- engine

void BM_EngineScheduleDispatch(benchmark::State& state) {
  pm2::sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(10, [] {});
    engine.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(engine.events_processed()));
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EngineThousandEvents(benchmark::State& state) {
  for (auto _ : state) {
    pm2::sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<pm2::SimTime>((i * 37) % 500), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
}
BENCHMARK(BM_EngineThousandEvents);

// --------------------------------------------------------------- tasklets

void BM_TaskletScheduleRun(benchmark::State& state) {
  // Host cost of one tasklet round trip through the simulated machine.
  pm2::marcel::Config cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 1;
  for (auto _ : state) {
    state.PauseTiming();
    pm2::sim::Engine engine;
    pm2::marcel::Runtime runtime(engine, cfg);
    int runs = 0;
    pm2::marcel::Tasklet tasklet([&] { ++runs; });
    state.ResumeTiming();
    tasklet.schedule_on(runtime.node(0).cpu(0));
    engine.run();
    benchmark::DoNotOptimize(runs);
  }
}
BENCHMARK(BM_TaskletScheduleRun);

}  // namespace

BENCHMARK_MAIN();
