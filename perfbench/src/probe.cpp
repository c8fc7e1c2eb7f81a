// Host-speed probe (see probe_s() in common.hpp).  One fixed unit of work
// shaped like the simulator's inner loop: pop the earliest of 1024 pending
// events from a binary heap, touch a 512 KiB state array where the event
// points, and push a successor a random delay later.  It shares no code
// with src/, so a change to the simulator never changes what it measures,
// and after its first call it allocates nothing.
//
// Of the probes tried (a dependent multiply chain, this heap, a copy of
// the engine's step() with a pending set and handlers called through
// pointers), this one tracked the simulator's slow phases best.
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kInFlight = 1024;  // events queued at any time
constexpr std::size_t kWords = 1 << 16;  // 512 KiB of state
constexpr int kSteps = 20000;            // events per probe

using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, word)

struct Probe {
  std::vector<std::uint64_t> state = std::vector<std::uint64_t>(kWords);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t rng = 0;

  Probe() {
    std::vector<Event> storage;
    storage.reserve(kInFlight + 1);
    queue = decltype(queue)(std::greater<>{}, std::move(storage));
  }

  std::uint64_t draw() {  // xorshift64
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
};

}  // namespace

double probe_s() {
  static Probe p;
  // The same events and draws on every call; only the state words, which
  // steer nothing, carry over.
  const std::size_t words = p.state.size();
  p.rng = 0x9E3779B97F4A7C15ull;
  while (!p.queue.empty()) p.queue.pop();
  for (std::size_t i = 0; i < kInFlight; ++i) {
    p.queue.push({p.draw() % 100000, static_cast<std::uint32_t>(p.draw() % words)});
  }

  const double t0 = host_s();
  std::uint64_t sink = 0;
  for (int step = 0; step < kSteps; ++step) {
    const auto [time, word] = p.queue.top();
    p.queue.pop();
    p.state[word] += time;
    sink += p.state[(word * 7) % words];
    p.queue.push({time + p.draw() % 1000,
                  static_cast<std::uint32_t>((word * 2654435761u + p.draw()) %
                                             words)});
  }
  const double dt = host_s() - t0;
  p.state[sink % words] ^= sink;  // keep the loop's loads live
  return dt;
}

}  // namespace perfbench
