// RPC + remotable-completion layer (pm2/rpc, pm2/completion): local and
// remote calls, typed marshalling round-trips, forwarded and counted
// completions, concurrent outstanding RPCs — across 1–8 node worlds in
// both progression modes — plus engine-invariant checks after every run
// and a seeded fuzz+fault soak on a lossy fabric
// (PM2_FUZZ_SOAK_SEEDS deepens it in CI).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "pm2/cluster.hpp"
#include "pm2/completion.hpp"
#include "pm2/rpc.hpp"
#include "sim/fiber.hpp"

namespace pm2::rpc {
namespace {

using Param = std::tuple<unsigned /*nodes*/, bool /*pioman*/>;

constexpr std::uint32_t kEcho = 1;     // validates marshalled args
constexpr std::uint32_t kForward = 2;  // re-calls kEcho on another node
constexpr std::uint32_t kTouch = 3;    // signals and returns

struct WorldOptions {
  bool faults = false;          // 1% drop/dup/reorder/corrupt + reliable
  std::uint64_t fuzz_seed = 0;  // schedule-exploration perturbation
};

class RpcWorld : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] unsigned world() const { return std::get<0>(GetParam()); }
  [[nodiscard]] bool pioman() const { return std::get<1>(GetParam()); }

  [[nodiscard]] ClusterConfig config(const WorldOptions& opt = {}) const {
    ClusterConfig cfg;
    cfg.nodes = world();
    cfg.cpus_per_node = 4;
    cfg.pioman = pioman();
    cfg.rpc = true;
    cfg.fuzz_seed = opt.fuzz_seed;
    if (opt.faults) {
      cfg.faults.defaults.drop = 0.01;
      cfg.faults.defaults.duplicate = 0.01;
      cfg.faults.defaults.reorder = 0.01;
      cfg.faults.defaults.corrupt = 0.01;
      cfg.nm.reliable = true;
    }
    return cfg;
  }

  /// Every-run invariants: every issued request was dispatched exactly
  /// once somewhere, every spawned handler finished, every completion
  /// was satisfied, every signal reached a completion, nothing is left
  /// queued.
  static void check_invariants(Cluster& cluster) {
    std::uint64_t issued = 0, dispatched = 0, sent = 0, delivered = 0;
    for (unsigned n = 0; n < cluster.nodes(); ++n) {
      const Engine::Stats& st = cluster.rpc(n).stats();
      issued += st.issued;
      dispatched += st.dispatched;
      sent += st.signals_sent;
      delivered += st.signals_delivered;
      EXPECT_EQ(st.dispatched, st.handler_spawns) << "node " << n;
      EXPECT_EQ(st.handler_spawns, st.handlers_done) << "node " << n;
      EXPECT_EQ(st.completions_created, st.completions_done) << "node " << n;
      EXPECT_EQ(cluster.rpc(n).queue_depth(), 0u) << "node " << n;
    }
    EXPECT_EQ(issued, dispatched);
    EXPECT_EQ(sent, delivered);
  }
};

// ------------------------------------------------------------ local call

TEST_P(RpcWorld, LocalCallDispatchesAndSignals) {
  Cluster cluster(config());
  std::uint64_t got = 0;
  cluster.rpc(0).register_service(kEcho, [&](Context& ctx) {
    got = ctx.args().u64();
    const CompletionRef done = ctx.args().completion();
    ctx.engine().signal(done);
  });
  cluster.run_on(0, [&] {
    Engine& eng = cluster.rpc(0);
    Completion c(eng);
    eng.call(0, kEcho, [&](ArgWriter& w) {
      w.u64(0xabcdef12345678ull);
      w.completion(c.ref());
    });
    c.wait();
  });
  cluster.run();
  EXPECT_EQ(got, 0xabcdef12345678ull);
  check_invariants(cluster);
}

// --------------------------------------------- remote marshalling round-trip

TEST_P(RpcWorld, RemoteCallRoundTripsTypedArgs) {
  Cluster cluster(config());
  const unsigned server = world() - 1;
  struct Seen {
    std::uint32_t a = 0;
    std::int64_t b = 0;
    double c = 0;
    std::string s;
    std::size_t blob = 0;   // length of the larger payload
    std::size_t empty = 1;  // length of the zero-length payload
    unsigned origin = ~0u;
  } seen;
  cluster.rpc(server).register_service(kEcho, [&](Context& ctx) {
    ArgReader& a = ctx.args();
    seen.a = a.u32();
    seen.b = a.i64();
    seen.c = a.f64();
    seen.s = std::string(a.str());
    seen.empty = a.bytes().size();  // zero-length blob round-trips
    const auto blob = a.bytes();
    seen.blob = blob.size();
    const CompletionRef done = a.completion();
    EXPECT_EQ(a.remaining(), 0u);
    seen.origin = ctx.origin();
    ctx.engine().signal(done);
  });
  cluster.run_on(0, [&] {
    Engine& eng = cluster.rpc(0);
    Completion c(eng);
    std::vector<std::byte> blob(777, std::byte{0x5a});
    eng.call(server, kEcho, [&](ArgWriter& w) {
      w.u32(42);
      w.i64(-7);
      w.f64(2.5);
      w.str("marcel");
      w.bytes({});  // zero-length
      w.bytes(blob);
      w.completion(c.ref());
    });
    c.wait();
  });
  if (!pioman() && server != 0) {
    cluster.run_on(server, [&] { cluster.rpc(server).serve_until_handlers_done(1); },
                   "server");
  }
  cluster.run();
  EXPECT_EQ(seen.a, 42u);
  EXPECT_EQ(seen.b, -7);
  EXPECT_EQ(seen.c, 2.5);
  EXPECT_EQ(seen.s, "marcel");
  EXPECT_EQ(seen.empty, 0u);
  EXPECT_EQ(seen.blob, 777u);
  EXPECT_EQ(seen.origin, 0u);
  check_invariants(cluster);
}

// ------------------------------------------------- rendezvous-sized args

TEST_P(RpcWorld, LargeArgsTravelByRendezvous) {
  Cluster cluster(config());
  const unsigned server = world() - 1;
  const std::size_t kBig = 48 * 1024;  // above the 32 KiB rdv threshold
  std::uint64_t got_sum = 0;
  cluster.rpc(server).register_service(kEcho, [&](Context& ctx) {
    const auto blob = ctx.args().bytes();
    EXPECT_EQ(blob.size(), kBig);
    std::uint64_t sum = 0;
    for (const std::byte b : blob) sum += static_cast<std::uint64_t>(b);
    got_sum = sum;
    ctx.engine().signal(ctx.args().completion());
  });
  std::uint64_t want_sum = 0;
  cluster.run_on(0, [&] {
    Engine& eng = cluster.rpc(0);
    Completion c(eng);
    std::vector<std::byte> blob(kBig);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<std::byte>(i * 31 + 7);
      want_sum += static_cast<std::uint64_t>(blob[i]);
    }
    eng.call(server, kEcho, [&](ArgWriter& w) {
      w.bytes(blob);
      w.completion(c.ref());
    });
    c.wait();
  });
  if (!pioman() && server != 0) {
    cluster.run_on(server, [&] { cluster.rpc(server).serve_until_handlers_done(1); },
                   "server");
  }
  cluster.run();
  EXPECT_EQ(got_sum, want_sum);
  const auto& st = cluster.comm(0).stats();
  EXPECT_GE(st.rdv_sends, 1u) << "big args should use the rendezvous path";
  check_invariants(cluster);
}

// -------------------------------------------------- forwarded completion

TEST_P(RpcWorld, CompletionForwardsThroughIntermediateNode) {
  // 0 calls A with a ref; A's handler does not signal — it forwards the
  // ref in a second RPC to B, whose handler signals.  The waiter on 0
  // must wake from a signal two hops removed from anything it sent.
  Cluster cluster(config());
  const unsigned a = 1 % world();
  const unsigned b = world() >= 3 ? 2 : 0;
  std::vector<unsigned> touched;
  cluster.rpc(a).register_service(kForward, [&, b](Context& ctx) {
    const CompletionRef done = ctx.args().completion();
    touched.push_back(ctx.engine().node_id());
    ctx.engine().call(b, kTouch, [&](ArgWriter& w) { w.completion(done); });
  });
  cluster.rpc(b).register_service(kTouch, [&](Context& ctx) {
    touched.push_back(ctx.engine().node_id());
    ctx.engine().signal(ctx.args().completion());
  });
  cluster.run_on(0, [&] {
    Engine& eng = cluster.rpc(0);
    Completion c(eng);
    eng.call(a, kForward, [&](ArgWriter& w) { w.completion(c.ref()); });
    c.wait();
  });
  if (!pioman()) {
    if (a != 0) {
      cluster.run_on(a, [&] { cluster.rpc(a).serve_until_handlers_done(1); },
                     "serverA");
    }
    if (b != 0 && b != a) {
      cluster.run_on(b, [&] { cluster.rpc(b).serve_until_handlers_done(1); },
                     "serverB");
    }
  }
  cluster.run();
  ASSERT_EQ(touched.size(), 2u);
  EXPECT_EQ(touched[0], a);
  EXPECT_EQ(touched[1], b);
  check_invariants(cluster);
}

// ---------------------------------------------------- counted completion

TEST_P(RpcWorld, CountedCompletionFansOut) {
  // One waiter, 2 * world workers: every node is called twice with the
  // same forwarded ref and signals it once (the exemplar's fan-out).
  Cluster cluster(config());
  const std::uint32_t fan = 2 * world();
  for (unsigned n = 0; n < world(); ++n) {
    cluster.rpc(n).register_service(kTouch, [&, n](Context& ctx) {
      marcel::this_thread::compute((1 + n % 3) * kUs);
      ctx.engine().signal(ctx.args().completion());
    });
  }
  cluster.run_on(0, [&] {
    Engine& eng = cluster.rpc(0);
    Completion c(eng, fan);
    for (std::uint32_t i = 0; i < fan; ++i) {
      eng.call(i % world(), kTouch,
               [&](ArgWriter& w) { w.completion(c.ref()); });
    }
    c.wait();
    EXPECT_TRUE(c.done());
    EXPECT_GT(c.done_at(), 0);
  });
  if (!pioman()) {
    for (unsigned n = 1; n < world(); ++n) {
      cluster.run_on(n, [&, n] { cluster.rpc(n).serve_until_handlers_done(2); },
                     "server");
    }
  }
  cluster.run();
  check_invariants(cluster);
}

// ------------------------------------------- concurrent outstanding RPCs

TEST_P(RpcWorld, ManyConcurrentOutstandingCalls) {
  // Every rank issues a burst of calls round-robin across the world
  // before waiting on any of them; handlers compute, so dispatches from
  // different origins interleave on the target nodes.
  constexpr unsigned kPerRank = 8;
  Cluster cluster(config());
  std::vector<std::uint64_t> sums(world(), 0);
  for (unsigned n = 0; n < world(); ++n) {
    cluster.rpc(n).register_service(kEcho, [&, n](Context& ctx) {
      const std::uint64_t x = ctx.args().u64();
      marcel::this_thread::compute(2 * kUs);
      sums[n] += x;
      ctx.engine().signal(ctx.args().completion());
    });
  }
  const std::uint64_t each = kPerRank * (kPerRank + 1) / 2;
  for (unsigned r = 0; r < world(); ++r) {
    cluster.run_on(r, [&, r] {
      Engine& eng = cluster.rpc(r);
      std::vector<std::unique_ptr<Completion>> pending;
      for (unsigned i = 1; i <= kPerRank; ++i) {
        auto c = std::make_unique<Completion>(eng);
        eng.call((r + i) % world(), kEcho, [&, i](ArgWriter& w) {
          w.u64(i);
          w.completion(c->ref());
        });
        pending.push_back(std::move(c));
      }
      for (auto& c : pending) c->wait();
      if (!pioman()) {
        // Each rank receives kPerRank requests in total; its own wait
        // loops dispatch some, but a rank whose callers finish late must
        // keep serving after its waits are over.
        eng.serve_until_handlers_done(kPerRank);
      }
    });
  }
  cluster.run();
  for (unsigned n = 0; n < world(); ++n) {
    EXPECT_EQ(sums[n], each) << "node " << n;
  }
  check_invariants(cluster);
}

// --------------------------------------------------------------- metrics

TEST_P(RpcWorld, MetricsStayConsistent) {
  Cluster cluster(config());
  for (unsigned n = 0; n < world(); ++n) {
    cluster.rpc(n).register_service(kTouch, [](Context& ctx) {
      ctx.engine().signal(ctx.args().completion());
    });
  }
  constexpr unsigned kCalls = 5;
  for (unsigned r = 0; r < world(); ++r) {
    cluster.run_on(r, [&, r] {
      Engine& eng = cluster.rpc(r);
      for (unsigned i = 0; i < kCalls; ++i) {
        Completion c(eng);
        eng.call((r + 1) % world(), kTouch,
                 [&](ArgWriter& w) { w.completion(c.ref()); });
        c.wait();
      }
      if (!pioman()) eng.serve_until_handlers_done(kCalls);
    });
  }
  cluster.run();
  for (unsigned n = 0; n < world(); ++n) {
    const Engine::Stats& st = cluster.rpc(n).stats();
    EXPECT_EQ(st.issued, kCalls);
    EXPECT_EQ(st.dispatched, kCalls);
    EXPECT_EQ(st.completions_created, kCalls);
    EXPECT_EQ(st.completions_done, kCalls);
  }
  // The bound histograms fill in when a registry is attached.
  MetricsRegistry& reg = cluster.metrics();
  const Log2Histogram* h = reg.find_histogram("node0/rpc/handler_ns");
  ASSERT_NE(h, nullptr);
  // Binding happened at cluster construction, before any traffic, so
  // every handler execution on node 0 is accounted.
  EXPECT_EQ(h->total(), cluster.rpc(0).stats().handlers_done);
  check_invariants(cluster);
}

// ------------------------------------------------- recycled fiber stacks

// Runs `calls` sequential RPCs node 0 → node 1 on a 2-node PIOMan cluster
// (one handler vthread each) and returns this thread's stack mappings once
// the cluster is gone.
std::size_t stacks_after_sequential_rpcs(unsigned calls) {
  {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.cpus_per_node = 4;
    cfg.pioman = true;
    cfg.rpc = true;
    Cluster cluster(cfg);
    cluster.rpc(1).register_service(kTouch, [](Context& ctx) {
      ctx.engine().signal(ctx.args().completion());
    });
    cluster.run_on(0, [&] {
      Engine& eng = cluster.rpc(0);
      for (unsigned i = 0; i < calls; ++i) {
        Completion c(eng);
        eng.call(1, kTouch, [&](ArgWriter& w) { w.completion(c.ref()); });
        c.wait();
      }
    });
    cluster.run();
    EXPECT_EQ(cluster.rpc(1).stats().handlers_done, calls);
    EXPECT_LE(sim::Fiber::stacks_pooled(), sim::Fiber::stacks_mapped());
  }
  // Every fiber the cluster made handed its stack back to the free list.
  EXPECT_GT(sim::Fiber::stacks_pooled(), 0u);
  EXPECT_EQ(sim::Fiber::stacks_pooled(), sim::Fiber::stacks_mapped());
  return sim::Fiber::stacks_mapped();
}

TEST(RpcFiberStacks, BoundedByLiveHandlersNotRequests) {
  const std::size_t after_50 = stacks_after_sequential_rpcs(50);
  const std::size_t after_500 = stacks_after_sequential_rpcs(500);
  EXPECT_EQ(after_500, after_50);
  EXPECT_LT(after_50, 50u);
}

// ------------------------------------------------------ tag-band fencing

TEST(RpcTagBand, CollBandStopsBelowRpcBand) {
  EXPECT_LT(nm::Core::kCollTagBase, nm::Core::kRpcTagBase);
  EXPECT_GE(Engine::kReqTag, nm::Core::kRpcTagBase);
  EXPECT_GE(Engine::kSigTag, nm::Core::kRpcTagBase);
  EXPECT_NE(Engine::kReqTag, Engine::kSigTag);
}

// ------------------------------------------------------------- fuzz soak

std::string soak_one(std::uint64_t seed) {
  // 3-node lossy world, both progression modes exercised by alternating
  // seeds; every rank both calls and serves.  Returns "" on success, a
  // diagnostic otherwise (EXPECT inside would abort the whole sweep).
  const bool pioman = (seed % 2) == 0;
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.cpus_per_node = 4;
  cfg.pioman = pioman;
  cfg.rpc = true;
  cfg.fuzz_seed = seed;
  cfg.nm.fault_seed = seed * 77 + 1;
  cfg.faults.defaults.drop = 0.01;
  cfg.faults.defaults.duplicate = 0.01;
  cfg.faults.defaults.reorder = 0.01;
  cfg.faults.defaults.corrupt = 0.01;
  cfg.nm.reliable = true;

  constexpr unsigned kPerRank = 4;
  Cluster cluster(cfg);
  std::vector<std::uint64_t> sums(cfg.nodes, 0);
  for (unsigned n = 0; n < cfg.nodes; ++n) {
    cluster.rpc(n).register_service(kEcho, [&sums, n](Context& ctx) {
      sums[n] += ctx.args().u64();
      ctx.engine().signal(ctx.args().completion());
    });
  }
  for (unsigned r = 0; r < cfg.nodes; ++r) {
    cluster.run_on(r, [&cluster, r, pioman] {
      Engine& eng = cluster.rpc(r);
      std::vector<std::unique_ptr<Completion>> pending;
      for (unsigned i = 1; i <= kPerRank; ++i) {
        auto c = std::make_unique<Completion>(eng);
        eng.call((r + i) % 3, kEcho, [&, i](ArgWriter& w) {
          w.u64(i * 1000 + r);
          w.completion(c->ref());
        });
        pending.push_back(std::move(c));
      }
      for (auto& c : pending) c->wait();
      if (!pioman) eng.serve_until_handlers_done(kPerRank);
    });
  }
  cluster.run();

  std::uint64_t want = 0, got = 0;
  for (unsigned r = 0; r < cfg.nodes; ++r) {
    for (unsigned i = 1; i <= kPerRank; ++i) want += i * 1000 + r;
    got += sums[r];
  }
  char diag[128];
  if (got != want) {
    std::snprintf(diag, sizeof diag,
                  "seed %llu: handler sums %llu != %llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    return diag;
  }
  std::uint64_t issued = 0, dispatched = 0;
  for (unsigned n = 0; n < cfg.nodes; ++n) {
    issued += cluster.rpc(n).stats().issued;
    dispatched += cluster.rpc(n).stats().dispatched;
  }
  if (issued != dispatched) {
    std::snprintf(diag, sizeof diag,
                  "seed %llu: issued %llu != dispatched %llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(issued),
                  static_cast<unsigned long long>(dispatched));
    return diag;
  }
  return "";
}

TEST(RpcFuzzSoak, CorrectAcrossSeedsOnLossyFabric) {
  // >= 100 seeds by default (the acceptance bar); PM2_FUZZ_SOAK_SEEDS
  // deepens the sweep in CI.  Seed 0 means "fuzzer off", so start at 1.
  std::uint64_t seeds = 100;
  if (const char* env = std::getenv("PM2_FUZZ_SOAK_SEEDS"); env != nullptr) {
    seeds = std::strtoull(env, nullptr, 0);
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::string diag = soak_one(seed);
    ASSERT_TRUE(diag.empty()) << diag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, RpcWorld,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 8u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) +
             (std::get<1>(pinfo.param) ? "_Pioman" : "_AppDriven");
    });

}  // namespace
}  // namespace pm2::rpc
