// Request lifecycle: recycling, misuse aborts, adaptive offload threshold,
// progress/test semantics, and continuations (each fires exactly once).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nmad/coll/coll.hpp"
#include "pm2/cluster.hpp"

namespace pm2::nm {
namespace {

using marcel::this_thread::compute;

ClusterConfig two_nodes(bool pioman = true) {
  ClusterConfig cfg;
  cfg.cpus_per_node = 4;
  cfg.pioman = pioman;
  return cfg;
}

TEST(Requests, RecycledAcrossManyOperations) {
  // Thousands of operations must not grow the pool unboundedly: requests
  // are recycled once waited.
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(128, std::byte{1});
  std::vector<std::byte> rx(128);
  cluster.run_on(0, [&] {
    for (int i = 0; i < 500; ++i) {
      cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
    }
  });
  cluster.run_on(1, [&] {
    for (int i = 0; i < 500; ++i) {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    }
  });
  cluster.run();
  EXPECT_EQ(cluster.comm(0).stats().sends, 500u);
}

TEST(Requests, RecvBufferTooSmallAborts) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(1024, std::byte{1});
  std::vector<std::byte> tiny(16);
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, tiny));
  });
  EXPECT_DEATH(cluster.run(), "too small");
}

TEST(Requests, RdvBufferTooSmallAborts) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(100'000, std::byte{1});
  std::vector<std::byte> small(50'000);
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, small));
  });
  EXPECT_DEATH(cluster.run(), "too small");
}

TEST(Requests, SendToInvalidNodeAborts) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(16, std::byte{1});
  cluster.run_on(0, [&] {
    EXPECT_DEATH((void)cluster.comm(0).isend(7, 1, data), "");
  });
  cluster.run();
}

TEST(Requests, TestReturnsFalseThenTrue) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(40 * 1024, std::byte{2});  // rdv: takes time
  std::vector<std::byte> rx(40 * 1024);
  int false_count = 0;
  cluster.run_on(0, [&] {
    Request* s = cluster.comm(0).isend(1, 1, data);
    while (!cluster.comm(0).test(s)) {
      ++false_count;
      compute(5 * kUs);
    }
  });
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
  });
  cluster.run();
  EXPECT_GE(false_count, 1) << "a rendezvous cannot complete instantly";
  EXPECT_EQ(rx, data);
}

TEST(Requests, ZeroByteMessage) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> empty;
  std::vector<std::byte> rx;
  bool received = false;
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 3, empty));
  });
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 3, rx));
    received = true;
  });
  cluster.run();
  EXPECT_TRUE(received);
}

TEST(Requests, ReceivedLenReflectsShorterMessage) {
  Cluster cluster(two_nodes());
  std::vector<std::byte> data(100, std::byte{9});
  std::vector<std::byte> big(1000);
  std::size_t got = 0;
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 1, big);
    // received_len is only valid before release; read it via a test loop.
    while (!r->done) {
      (void)cluster.comm(1).progress(marcel::this_thread::cpu());
      compute(kUs);
    }
    got = r->received_len;
    cluster.comm(1).wait(r);
  });
  cluster.run();
  EXPECT_EQ(got, 100u);
}

TEST(Requests, OffloadMinBytesSubmitsInline) {
  ClusterConfig cfg = two_nodes();
  cfg.nm.offload_min_bytes = 1024;
  Cluster cluster(cfg);
  std::vector<std::byte> tiny(64, std::byte{1});
  std::vector<std::byte> big(8192, std::byte{2});
  std::vector<std::byte> rx1(64), rx2(8192);
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, tiny));
    cluster.comm(0).wait(cluster.comm(0).isend(1, 2, big));
  });
  cluster.run_on(1, [&] {
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx1));
    cluster.comm(1).wait(cluster.comm(1).irecv(0, 2, rx2));
  });
  cluster.run();
  EXPECT_EQ(rx1, tiny);
  EXPECT_EQ(rx2, big);
  // Only the big message went through the posted-work path.
  EXPECT_EQ(cluster.server(0)->stats().posted_items, 1u);
}

TEST(Requests, IsendReturnsFasterWithInlineThresholdForTiny) {
  // For a 64B message the inline injection (~0.5us) is cheaper than
  // deferral+flush; the adaptive threshold makes isend+wait finish sooner.
  auto run_once = [](std::size_t min_bytes) {
    ClusterConfig cfg;
    cfg.cpus_per_node = 1;  // no idle core: deferral only delays
    cfg.nm.offload_min_bytes = min_bytes;
    Cluster cluster(cfg);
    std::vector<std::byte> tiny(64, std::byte{1});
    std::vector<std::byte> rx(64);
    SimDuration took = 0;
    cluster.run_on(0, [&] {
      const SimTime t0 = cluster.now();
      cluster.comm(0).wait(cluster.comm(0).isend(1, 1, tiny));
      took = cluster.now() - t0;
    });
    cluster.run_on(1, [&] {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, 1, rx));
    });
    cluster.run();
    return took;
  };
  const SimDuration deferred = run_once(0);
  const SimDuration inline_sub = run_once(1024);
  EXPECT_LE(inline_sub, deferred);
}

// ------------------------------------------------------------ continuations

/// Counts its firings into the int `ctx` points at; `arg` must come back
/// as attached.
constexpr std::uint32_t kArg = 0xC0FFEEu;
void count_firing(void* ctx, std::uint32_t arg) {
  EXPECT_EQ(arg, kArg);
  ++*static_cast<int*>(ctx);
}
Continuation counter(int& fired) { return {&count_firing, &fired, kArg}; }

class Continuations : public ::testing::TestWithParam<bool /*pioman*/> {
 protected:
  /// Drive progress on `node` until `fired` turns non-zero (app-driven
  /// mode needs it; under PIOMan idle cores would get there anyway).
  static void progress_until_fired(Cluster& cluster, unsigned node,
                                   const int& fired) {
    while (fired == 0) {
      (void)cluster.comm(node).progress(marcel::this_thread::cpu());
      compute(kUs);
    }
  }

  static void expect_drained(Cluster& cluster) {
    for (unsigned n = 0; n < cluster.nodes(); ++n) {
      EXPECT_EQ(cluster.comm(n).requests_live(), 0u) << "node " << n;
    }
  }
};

// The message is already buffered unexpected, so the irecv completes
// inline: attaching the continuation must fire it right away, once.
TEST_P(Continuations, FireOnceOnInlineCompletion) {
  Cluster cluster(two_nodes(GetParam()));
  std::vector<std::byte> data(64, std::byte{3});
  std::vector<std::byte> rx(64);
  int fired = 0;
  cluster.run_on(0, [&] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run_on(1, [&] {
    Core& core = cluster.comm(1);
    while (!core.probe(0, 1)) {
      (void)core.progress(marcel::this_thread::cpu());
      compute(kUs);
    }
    Request* r = core.irecv(0, 1, rx);
    ASSERT_TRUE(r->done);
    core.set_continuation(r, counter(fired));
    EXPECT_EQ(fired, 1);
  });
  cluster.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rx, data);
  expect_drained(cluster);
}

// The receive is posted first and completes when the eager packet lands.
TEST_P(Continuations, FireOnceOnEagerCompletion) {
  Cluster cluster(two_nodes(GetParam()));
  std::vector<std::byte> data(256, std::byte{4});
  std::vector<std::byte> rx(256);
  int fired = 0;
  bool posted = false;
  cluster.run_on(0, [&] {
    while (!posted) compute(kUs);
    cluster.comm(0).wait(cluster.comm(0).isend(1, 1, data));
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 1, rx);
    cluster.comm(1).set_continuation(r, counter(fired));
    EXPECT_EQ(fired, 0);
    posted = true;
    progress_until_fired(cluster, 1, fired);
  });
  cluster.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rx, data);
  EXPECT_EQ(cluster.comm(1).stats().expected_eager, 1u);
  expect_drained(cluster);
}

// Both sides of a rendezvous: the receive completes on the RDMA landing,
// the send when its last stripe is delivered.
TEST_P(Continuations, FireOnceOnRendezvousCompletion) {
  Cluster cluster(two_nodes(GetParam()));
  std::vector<std::byte> data(64 * 1024, std::byte{5});
  std::vector<std::byte> rx(64 * 1024);
  int sent = 0;
  int received = 0;
  cluster.run_on(0, [&] {
    Request* s = cluster.comm(0).isend(1, 1, data);
    cluster.comm(0).set_continuation(s, counter(sent));
    progress_until_fired(cluster, 0, sent);
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 1, rx);
    cluster.comm(1).set_continuation(r, counter(received));
    progress_until_fired(cluster, 1, received);
  });
  cluster.run();
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(rx, data);
  EXPECT_EQ(cluster.comm(0).stats().rdv_sends, 1u);
  expect_drained(cluster);
}

// Collective DAGs run on continuations: 1 000 back-to-back allreduces must
// recycle every request, leaving the pool at its first-call size.
TEST_P(Continuations, RequestPoolFlatAcrossAllreduces) {
  constexpr unsigned kNodes = 4;
  constexpr int kCalls = 1000;
  ClusterConfig cfg = two_nodes(GetParam());
  cfg.nodes = kNodes;
  Cluster cluster(cfg);
  std::vector<std::size_t> after_first(kNodes);
  for (unsigned r = 0; r < kNodes; ++r) {
    cluster.run_on(r, [&cluster, &after_first, r] {
      coll::Engine& coll = cluster.coll(r);
      std::vector<double> v(16);
      for (int i = 0; i < kCalls; ++i) {
        std::fill(v.begin(), v.end(), static_cast<double>(r));
        coll.wait(coll.iallreduce_sum(v));
        EXPECT_EQ(v[0], 6.0);
        if (i == 0) after_first[r] = cluster.comm(r).requests_pooled();
      }
    });
  }
  cluster.run();
  for (unsigned r = 0; r < kNodes; ++r) {
    EXPECT_GT(after_first[r], 0u);
    EXPECT_EQ(cluster.comm(r).requests_pooled(), after_first[r])
        << "rank " << r;
  }
  expect_drained(cluster);
}

INSTANTIATE_TEST_SUITE_P(Modes, Continuations, ::testing::Bool(),
                         [](const auto& param) {
                           return param.param ? "Pioman" : "AppDriven";
                         });

}  // namespace
}  // namespace pm2::nm
