// Sharded tag-matching (src/nmad/matching): concurrent injection across
// shards and within one shard, per-shard conservation laws, schedule-fuzz
// and lockdep sweeps over the shard locks, the sequence-space wrap guard,
// the purge-at-match contract of the RPC pending queue, and bounded
// cursor state: collective-band tags never allocate a flow cursor.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "marcel/lockdep.hpp"
#include "nmad/coll/coll.hpp"
#include "nmad/matching/store.hpp"
#include "pm2/cluster.hpp"

namespace pm2::nm {
namespace {

using marcel::this_thread::compute;

std::vector<std::byte> pattern(std::size_t n, int seed = 5) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
  return v;
}

ClusterConfig make_cfg(bool pioman, bool sharded, unsigned cpus = 4) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = cpus;
  cfg.pioman = pioman;
  if (sharded) {
    cfg.nm.match_shards = 8;
    cfg.nm.per_core_endpoints = true;
  }
  return cfg;
}

/// The per-shard conservation laws the metrics checker enforces
/// (tools/check_metrics.py --expect-shards), asserted directly on the
/// store, plus the cross-check against the node-level receive counter.
void expect_conserved(const Core& core) {
  const matching::Store& st = core.match_store();
  std::uint64_t posted_sum = 0;
  for (unsigned s = 0; s < st.shard_count(); ++s) {
    const matching::Shard& sh = st.shard(s);
    const auto& m = sh.stats;
    const auto posted_pending = static_cast<std::uint64_t>(sh.posted.size());
    const auto unexpected_pending = static_cast<std::uint64_t>(
        sh.unexpected.size() + sh.unexpected_rts.size());
    EXPECT_EQ(m.recvs_posted, m.recvs_matched + posted_pending)
        << "shard " << s;
    EXPECT_EQ(m.arrivals, m.arrivals_matched + m.arrivals_buffered)
        << "shard " << s;
    EXPECT_EQ(m.arrivals_buffered, m.buffered_claimed + unexpected_pending)
        << "shard " << s;
    EXPECT_EQ(m.recvs_matched, m.arrivals_matched + m.buffered_claimed)
        << "shard " << s;
    posted_sum += m.recvs_posted;
  }
  EXPECT_EQ(posted_sum, core.stats().recvs)
      << "shard totals must add up to the node's receive count";
}

TEST(MatchingStore, ShardMapIsDeterministicAndBandGranular) {
  const matching::Store st(0, 16, /*tag_band_shift=*/3, 50,
                           /*model_locks=*/false);
  EXPECT_EQ(st.shard_count(), 16u);
  for (unsigned peer = 0; peer < 4; ++peer) {
    for (Tag tag = 0; tag < 64; ++tag) {
      const unsigned s = st.shard_of(peer, tag);
      EXPECT_LT(s, 16u);
      EXPECT_EQ(s, st.shard_of(peer, tag)) << "map must be deterministic";
      // Tags within one 2^3 band share the shard (for a fixed peer).
      EXPECT_EQ(s, st.shard_of(peer, (tag & ~Tag{7}) | 5));
    }
  }
}

class MatchingModes
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

// N vthreads inject concurrently on *distinct* (peer, tag) flows, tags one
// band apart so every pair owns a shard.  Data integrity and the
// conservation laws must hold in both progression modes, sharded or not.
TEST_P(MatchingModes, ConcurrentInjectionDistinctFlows) {
  const auto [pioman, sharded] = GetParam();
  Cluster cluster(make_cfg(pioman, sharded));
  constexpr unsigned kPairs = 4;
  constexpr int kIters = 8;
  static std::vector<std::vector<std::byte>> tx, rx;
  tx.clear();
  rx.assign(kPairs * kIters, std::vector<std::byte>(4096));
  for (unsigned p = 0; p < kPairs; ++p) tx.push_back(pattern(4096, int(p)));
  for (unsigned p = 0; p < kPairs; ++p) {
    const Tag tag = 1 + p * 8;  // one tag band apart (tag_band_shift = 3)
    cluster.run_on(0, [&cluster, p, tag] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(0).wait(cluster.comm(0).isend(1, tag, tx[p]));
      }
    });
    cluster.run_on(1, [&cluster, p, tag] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(1).wait(
            cluster.comm(1).irecv(0, tag, rx[p * kIters + i]));
      }
    });
  }
  cluster.run();
  for (unsigned p = 0; p < kPairs; ++p) {
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(rx[p * kIters + i], tx[p]) << "pair " << p << " iter " << i;
    }
  }
  EXPECT_EQ(cluster.comm(1).sharded(), sharded);
  expect_conserved(cluster.comm(0));
  expect_conserved(cluster.comm(1));
}

// N vthreads hammer the *same* (peer, tag): every injection lands on one
// shard, sequence order still matches sends to receives 1:1.
TEST_P(MatchingModes, ConcurrentInjectionSharedFlow) {
  const auto [pioman, sharded] = GetParam();
  Cluster cluster(make_cfg(pioman, sharded));
  constexpr unsigned kThreads = 3;
  constexpr int kIters = 6;
  static std::vector<std::byte> data;
  static std::vector<std::vector<std::byte>> rx;
  data = pattern(2048);
  rx.assign(kThreads * kIters, std::vector<std::byte>(2048));
  for (unsigned t = 0; t < kThreads; ++t) {
    cluster.run_on(0, [&cluster] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(0).wait(cluster.comm(0).isend(1, /*tag=*/5, data));
      }
    });
    cluster.run_on(1, [&cluster, t] {
      for (int i = 0; i < kIters; ++i) {
        cluster.comm(1).wait(
            cluster.comm(1).irecv(0, /*tag=*/5, rx[t * kIters + i]));
      }
    });
  }
  cluster.run();
  for (const auto& buf : rx) EXPECT_EQ(buf, data);
  expect_conserved(cluster.comm(0));
  expect_conserved(cluster.comm(1));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MatchingModes,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& tp) {
      return std::string(std::get<0>(tp.param) ? "Pioman" : "AppDriven") +
             (std::get<1>(tp.param) ? "Sharded" : "Single");
    });

// 200-seed schedule-fuzz sweep over the sharded path with lockdep watching
// the shard locks: every seed must deliver intact data, conserve the
// per-shard counters, and close the session without lock violations.
TEST(MatchingFuzz, ShardedSweepHoldsInvariants) {
  lockdep::Session session;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ClusterConfig cfg = make_cfg(/*pioman=*/true, /*sharded=*/true);
    cfg.fuzz_seed = seed;
    Cluster cluster(cfg);
    static std::vector<std::byte> tx;
    static std::vector<std::vector<std::byte>> rx;
    tx = pattern(2048, static_cast<int>(seed));
    rx.assign(4, std::vector<std::byte>(2048));
    for (unsigned p = 0; p < 2; ++p) {
      const Tag tag = 1 + p * 8;
      cluster.run_on(0, [&cluster, tag] {
        for (int i = 0; i < 2; ++i) {
          cluster.comm(0).wait(cluster.comm(0).isend(1, tag, tx));
        }
      });
      cluster.run_on(1, [&cluster, p, tag] {
        for (int i = 0; i < 2; ++i) {
          cluster.comm(1).wait(
              cluster.comm(1).irecv(0, tag, rx[p * 2 + i]));
        }
      });
    }
    cluster.run();
    for (const auto& buf : rx) {
      ASSERT_EQ(buf, tx) << "seed " << seed;
    }
    expect_conserved(cluster.comm(0));
    expect_conserved(cluster.comm(1));
    ASSERT_EQ(lockdep::violation_count(), 0u)
        << "seed " << seed << "\n" << lockdep::report();
  }
}

// Determinism: one seed, two runs, identical trajectory.
TEST(MatchingFuzz, SameSeedSameSimulation) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg = make_cfg(/*pioman=*/true, /*sharded=*/true);
    cfg.fuzz_seed = seed;
    Cluster cluster(cfg);
    static std::vector<std::byte> tx;
    static std::vector<std::vector<std::byte>> rx;
    tx = pattern(4096);
    rx.assign(4, std::vector<std::byte>(4096));
    for (unsigned p = 0; p < 4; ++p) {
      const Tag tag = 1 + p * 8;
      cluster.run_on(0, [&cluster, tag] {
        cluster.comm(0).wait(cluster.comm(0).isend(1, tag, tx));
      });
      cluster.run_on(1, [&cluster, p, tag] {
        cluster.comm(1).wait(cluster.comm(1).irecv(0, tag, rx[p]));
      });
    }
    cluster.run();
    return std::pair{cluster.now(), cluster.runtime().total_stats().ctx_switches};
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// The flow cursors cross the last representable wire sequence numbers
// without aliasing: messages at 2^32-2 and 2^32-1 still match exactly.
TEST(SeqWrap, BoundaryMessagesStillMatch) {
  Cluster cluster(make_cfg(/*pioman=*/true, /*sharded=*/true));
  constexpr Tag kTag = 9;
  const std::uint64_t next = (std::uint64_t{1} << 32) - 2;
  cluster.comm(0).debug_seed_seq(1, kTag, next);
  cluster.comm(1).debug_seed_seq(0, kTag, next);
  static std::vector<std::byte> tx;
  static std::vector<std::vector<std::byte>> rx;
  tx = pattern(1024);
  rx.assign(2, std::vector<std::byte>(1024));
  cluster.run_on(0, [&cluster] {
    for (int i = 0; i < 2; ++i) {
      cluster.comm(0).wait(cluster.comm(0).isend(1, kTag, tx));
    }
  });
  cluster.run_on(1, [&cluster] {
    for (int i = 0; i < 2; ++i) {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, kTag, rx[i]));
    }
  });
  cluster.run();
  EXPECT_EQ(rx[0], tx);
  EXPECT_EQ(rx[1], tx);
  expect_conserved(cluster.comm(1));
}

// One step further and the guard trips instead of silently wrapping the
// 32-bit wire sequence onto live messages.  Applies in legacy mode too —
// the guard lives in the shared Shard::take_seq.
TEST(SeqWrapDeathTest, ExhaustionTripsTheGuard) {
  for (const bool sharded : {false, true}) {
    Cluster cluster(make_cfg(/*pioman=*/true, sharded));
    constexpr Tag kTag = 9;
    cluster.comm(0).debug_seed_seq(1, kTag, std::uint64_t{1} << 32);
    static std::vector<std::byte> tx;
    tx = pattern(256);
    cluster.run_on(0, [&cluster] {
      cluster.comm(0).wait(cluster.comm(0).isend(1, kTag, tx));
    });
    EXPECT_DEATH(cluster.run(), "sequence space exhausted");
  }
}

// Satellite bugfix regression: an RPC-band message claimed by an irecv
// must purge its pending-dispatch entry, so pop_rpc_pending() never hands
// the dispatcher a (src, tag) whose message is already gone.
TEST(RpcPending, ClaimedMessagePurgesItsEntry) {
  Cluster cluster(make_cfg(/*pioman=*/true, /*sharded=*/false));
  static constexpr Tag kTag = Core::kRpcTagBase + 3;
  static std::vector<std::byte> tx;
  static std::vector<std::byte> rx;
  tx = pattern(512);
  rx.assign(512, std::byte{});
  cluster.run_on(0, [&cluster] {
    cluster.comm(0).wait(cluster.comm(0).isend(1, kTag, tx));
  });
  cluster.run_on(1, [&cluster] {
    compute(300 * kUs);  // let the message buffer as unexpected
    EXPECT_EQ(cluster.comm(1).rpc_unexpected(), 1u);
    cluster.comm(1).wait(cluster.comm(1).irecv(0, kTag, rx));
    EXPECT_EQ(cluster.comm(1).rpc_unexpected(), 0u);
    // Before the fix this popped the stale entry of the claimed message.
    EXPECT_FALSE(cluster.comm(1).pop_rpc_pending().has_value());
  });
  cluster.run();
  EXPECT_EQ(rx, tx);
}

// With two buffered messages and one claimed, exactly one entry remains.
TEST(RpcPending, RemainingEntriesStayConsistent) {
  Cluster cluster(make_cfg(/*pioman=*/true, /*sharded=*/true));
  static constexpr Tag kTag = Core::kRpcTagBase + 3;
  static std::vector<std::byte> tx;
  static std::vector<std::vector<std::byte>> rx;
  tx = pattern(512);
  rx.assign(2, std::vector<std::byte>(512));
  cluster.run_on(0, [&cluster] {
    for (int i = 0; i < 2; ++i) {
      cluster.comm(0).wait(cluster.comm(0).isend(1, kTag, tx));
    }
  });
  cluster.run_on(1, [&cluster] {
    compute(500 * kUs);  // both messages buffered
    EXPECT_EQ(cluster.comm(1).rpc_unexpected(), 2u);
    cluster.comm(1).wait(cluster.comm(1).irecv(0, kTag, rx[0]));
    EXPECT_EQ(cluster.comm(1).rpc_unexpected(), 1u);
    const auto entry = cluster.comm(1).pop_rpc_pending();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->first, 0u);
    EXPECT_EQ(entry->second, kTag);
    EXPECT_FALSE(cluster.comm(1).pop_rpc_pending().has_value());
    // Drain the popped channel the way the dispatcher would.
    cluster.comm(1).wait(cluster.comm(1).irecv(0, kTag, rx[1]));
  });
  cluster.run();
  EXPECT_EQ(rx[0], tx);
  EXPECT_EQ(rx[1], tx);
}

// Live (peer, tag) sequence cursors on `node`, summed over its shards from
// the nodeN/nm/shardS/flows gauges — and cross-checked against the store.
double flows_on(Cluster& cluster, unsigned node) {
  const matching::Store& st = cluster.comm(node).match_store();
  double gauge = 0;
  std::size_t direct = 0;
  for (unsigned s = 0; s < st.shard_count(); ++s) {
    gauge += cluster.metrics().value("node" + std::to_string(node) +
                                     "/nm/shard" + std::to_string(s) +
                                     "/flows");
    direct += st.shard(s).flows.size();
  }
  EXPECT_EQ(gauge, static_cast<double>(direct)) << "node " << node;
  return gauge;
}

class BoundedFlows : public ::testing::TestWithParam<bool /*pioman*/> {};

// Every collective op gets a fresh coll-band tag; none of them may leave a
// sequence cursor behind, so matching state does not grow with the number
// of collectives run: 5 rounds and 50 rounds end at the same (zero) count.
TEST_P(BoundedFlows, CollectivesLeaveNoCursors) {
  constexpr unsigned kNodes = 4;
  const auto run = [&](int rounds) {
    ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.cpus_per_node = 4;
    cfg.pioman = GetParam();
    Cluster cluster(cfg);
    for (unsigned r = 0; r < kNodes; ++r) {
      cluster.run_on(r, [&cluster, r, rounds] {
        coll::Engine& coll = cluster.coll(r);
        std::vector<double> v(16);
        for (int i = 0; i < rounds; ++i) {
          for (std::size_t k = 0; k < v.size(); ++k) {
            v[k] = static_cast<double>(r + k + i);
          }
          coll.wait(coll.iallreduce_sum(v));
          for (std::size_t k = 0; k < v.size(); ++k) {
            EXPECT_EQ(v[k], static_cast<double>(6 + 4 * (k + i)));
          }
          coll.wait(coll.ibarrier());
        }
      });
    }
    cluster.run();
    EXPECT_GT(cluster.comm(0).coll_tags_used(), 0u);
    double flows = 0;
    for (unsigned r = 0; r < kNodes; ++r) flows += flows_on(cluster, r);
    return flows;
  };
  const double after5 = run(5);
  const double after50 = run(50);
  EXPECT_EQ(after5, after50);
  EXPECT_EQ(after5, 0.0);
}

// User tags keep their cursors: a stream on one (peer, tag) holds exactly
// one entry per side, however long it runs.
TEST_P(BoundedFlows, UserFlowKeepsOneCursorPerSide) {
  ClusterConfig cfg = make_cfg(GetParam(), /*sharded=*/true);
  Cluster cluster(cfg);
  constexpr Tag kTag = 7;
  constexpr int kMsgs = 20;
  static std::vector<std::byte> tx;
  static std::vector<std::byte> rx;
  tx = pattern(256);
  rx.assign(256, std::byte{});
  cluster.run_on(0, [&cluster] {
    for (int i = 0; i < kMsgs; ++i) {
      cluster.comm(0).wait(cluster.comm(0).isend(1, kTag, tx));
    }
  });
  cluster.run_on(1, [&cluster] {
    for (int i = 0; i < kMsgs; ++i) {
      cluster.comm(1).wait(cluster.comm(1).irecv(0, kTag, rx));
    }
  });
  cluster.run();
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(flows_on(cluster, 0), 1.0);
  EXPECT_EQ(flows_on(cluster, 1), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, BoundedFlows, ::testing::Bool(),
                         [](const auto& param) {
                           return param.param ? "Pioman" : "AppDriven";
                         });

// A coll-band tag carries exactly one matched pair, so both of these
// receives get seq 0: the second must abort instead of overwriting the
// first in the posted table and leaving it to hang.
TEST(CollTagDeathTest, TwoPostedReceivesOnOneCollTagAbort) {
  for (const bool sharded : {false, true}) {
    Cluster cluster(make_cfg(/*pioman=*/false, sharded));
    static std::vector<std::byte> rx;
    rx.assign(2 * 64, std::byte{});
    cluster.run_on(1, [&cluster] {
      constexpr Tag kTag = Core::kCollTagBase + 5;
      std::span<std::byte> buf(rx);
      Request* a = cluster.comm(1).irecv(0, kTag, buf.first(64));
      Request* b = cluster.comm(1).irecv(0, kTag, buf.last(64));
      cluster.comm(1).wait(a);
      cluster.comm(1).wait(b);
    });
    EXPECT_DEATH(cluster.run(),
                 "two posted receives share one");
  }
}

}  // namespace
}  // namespace pm2::nm
