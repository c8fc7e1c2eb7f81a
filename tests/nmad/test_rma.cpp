// One-sided RMA windows (nmad/rma): put/get round-trips and rendezvous
// puts in both progression modes, passive-target progression (the target
// makes ZERO library calls during the epoch — the tentpole claim),
// fence/lock epoch semantics, origin-side bounds rejection before the
// wire, per-engine conservation laws, causal-trace assembly of "rma"
// traces, and a seeded schedule-fuzz + fault soak proving concurrent
// accumulates sum exactly (PM2_FUZZ_SOAK_SEEDS deepens it in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nmad/rma/rma.hpp"
#include "pm2/cluster.hpp"
#include "pm2/tracing/assembly.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::nm::rma {
namespace {

std::byte pat(std::size_t i) {
  return static_cast<std::byte>((i * 31 + 7) & 0xff);
}

template <typename T>
std::vector<std::byte> pack_elems(const std::vector<T>& v) {
  std::vector<std::byte> out(v.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
T read_elem(const std::vector<std::byte>& buf, std::size_t off) {
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  return v;
}

/// The cross-engine conservation laws every healthy run must satisfy:
/// nothing issued goes unapplied, every fence retires exactly once, and
/// no wire op was ever dropped as malformed.
void check_conservation(Cluster& cluster, unsigned nodes) {
  Engine::Stats sum;
  for (unsigned r = 0; r < nodes; ++r) {
    const Engine::Stats& st = cluster.rma(r).stats();
    EXPECT_EQ(st.puts_eager + st.puts_rdv, st.puts_issued) << "rank " << r;
    EXPECT_EQ(st.epochs_opened, st.epochs_closed) << "rank " << r;
    EXPECT_EQ(st.dropped_out_of_range, 0u) << "rank " << r;
    sum.puts_issued += st.puts_issued;
    sum.puts_applied += st.puts_applied;
    sum.accs_issued += st.accs_issued;
    sum.accs_applied += st.accs_applied;
    sum.gets_issued += st.gets_issued;
    sum.gets_served += st.gets_served;
    sum.gets_completed += st.gets_completed;
    sum.flush_reqs += st.flush_reqs;
    sum.flush_acks += st.flush_acks;
    sum.flush_acks_rx += st.flush_acks_rx;
  }
  EXPECT_EQ(sum.puts_issued, sum.puts_applied);
  EXPECT_EQ(sum.accs_issued, sum.accs_applied);
  EXPECT_EQ(sum.gets_issued, sum.gets_served);
  EXPECT_EQ(sum.gets_issued, sum.gets_completed);
  EXPECT_EQ(sum.flush_reqs, sum.flush_acks);
  EXPECT_EQ(sum.flush_reqs, sum.flush_acks_rx);
}

/// App-driven target obligation: drive engine progression until `done`.
/// Under PIOMan this is never needed — that is the tentpole — so callers
/// gate it on the mode.
template <typename Pred>
void pump(Engine& rma, Pred done) {
  while (!done()) {
    if (!rma.progress()) marcel::this_thread::compute(1 * kUs);
  }
}

class RmaMode : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bool pioman() const { return GetParam(); }

  [[nodiscard]] ClusterConfig config(unsigned nodes,
                                     unsigned cpus = 4) const {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.cpus_per_node = cpus;
    cfg.pioman = pioman();
    cfg.rma = true;
    return cfg;
  }
};

// ------------------------------------------------------ put/get round-trip

TEST_P(RmaMode, PutGetRoundTrip) {
  constexpr std::size_t kBytes = 256;
  constexpr std::uint64_t kOff = 64;
  constexpr std::size_t kLen = 128;
  Cluster cluster(config(2));
  std::vector<std::byte> origin_win(kBytes);
  std::vector<std::byte> target_win(kBytes);
  std::vector<std::byte> sent(kLen);
  for (std::size_t i = 0; i < kLen; ++i) sent[i] = pat(i);
  std::vector<std::byte> got(kLen);
  bool done = false;

  cluster.run_on(0, [&] {
    Engine& rma = cluster.rma(0);
    const WinId win = rma.win_create(origin_win);
    rma.lock(win, 1);
    EXPECT_EQ(rma.put(win, 1, kOff, sent), Status::kOk);
    rma.flush(win, 1);
    EXPECT_EQ(rma.get(win, 1, kOff, got), Status::kOk);
    rma.flush(win, 1);
    rma.unlock(win, 1);
    done = true;
  });
  cluster.run_on(1, [&] {
    (void)cluster.rma(1).win_create(target_win);
    if (!pioman()) pump(cluster.rma(1), [&] { return done; });
  });
  cluster.run();

  EXPECT_EQ(got, sent);
  EXPECT_TRUE(std::equal(sent.begin(), sent.end(),
                         target_win.begin() + kOff));
  const Engine::Stats& o = cluster.rma(0).stats();
  EXPECT_EQ(o.puts_issued, 1u);
  EXPECT_EQ(o.puts_eager, 1u);
  EXPECT_EQ(o.gets_issued, 1u);
  check_conservation(cluster, 2);
}

// ------------------------------------------------------- rendezvous puts

TEST_P(RmaMode, LargePutUsesRendezvous) {
  // Above the 32 KiB default threshold, with an odd size and offset so a
  // byte-shifted landing would be caught.
  constexpr std::size_t kLarge = 64 * 1024 + 17;
  constexpr std::uint64_t kOff = 12345;
  constexpr std::size_t kSmall = 256;
  Cluster cluster(config(2));
  std::vector<std::byte> origin_win(8);
  std::vector<std::byte> target_win(128 * 1024);
  std::vector<std::byte> large(kLarge);
  for (std::size_t i = 0; i < kLarge; ++i) large[i] = pat(i);
  std::vector<std::byte> small(kSmall, std::byte{0x5a});
  bool done = false;

  cluster.run_on(0, [&] {
    Engine& rma = cluster.rma(0);
    const WinId win = rma.win_create(origin_win);
    rma.lock(win, 1);
    EXPECT_EQ(rma.put(win, 1, kOff, large), Status::kOk);
    EXPECT_EQ(rma.put(win, 1, 0, small), Status::kOk);
    rma.unlock(win, 1);  // unlock's flush covers both
    done = true;
  });
  cluster.run_on(1, [&] {
    (void)cluster.rma(1).win_create(target_win);
    if (!pioman()) pump(cluster.rma(1), [&] { return done; });
  });
  cluster.run();

  EXPECT_TRUE(std::equal(large.begin(), large.end(),
                         target_win.begin() + kOff));
  EXPECT_TRUE(std::equal(small.begin(), small.end(), target_win.begin()));
  const Engine::Stats& o = cluster.rma(0).stats();
  EXPECT_EQ(o.puts_issued, 2u);
  EXPECT_EQ(o.puts_rdv, 1u);
  EXPECT_EQ(o.puts_eager, 1u);
  EXPECT_EQ(cluster.rma(1).stats().puts_applied, 2u);
  check_conservation(cluster, 2);
}

// ------------------------------------------------- bounds / validation

TEST_P(RmaMode, BadOpsRejectedBeforeTheWire) {
  constexpr std::size_t kBytes = 64 * 1024;
  Cluster cluster(config(2));
  std::vector<std::byte> wins[2] = {std::vector<std::byte>(kBytes),
                                    std::vector<std::byte>(kBytes)};
  std::vector<std::byte> buf(40 * 1024);  // over the 32 KiB rdv threshold

  cluster.run_on(0, [&] {
    Engine& rma = cluster.rma(0);
    const WinId win = rma.win_create(wins[0]);
    rma.lock(win, 1);
    const std::span<std::byte> b(buf);
    // Out of range: straddles the end, starts past the end.
    EXPECT_EQ(rma.put(win, 1, kBytes - 4, b.first(8)), Status::kOutOfRange);
    EXPECT_EQ(rma.put(win, 1, kBytes + 1, b.first(1)), Status::kOutOfRange);
    EXPECT_EQ(rma.get(win, 1, kBytes - 4, b.first(8)), Status::kOutOfRange);
    EXPECT_EQ(rma.accumulate(win, 1, kBytes, b.first(8), AccOp::kSum,
                             AccType::kU64),
              Status::kOutOfRange);
    // Invalid accumulate shapes: misaligned offset, ragged size, and a
    // payload over the rdv threshold (accumulates are eager-only).
    EXPECT_EQ(rma.accumulate(win, 1, 4, b.first(8), AccOp::kSum,
                             AccType::kU64),
              Status::kInvalidArgument);
    EXPECT_EQ(rma.accumulate(win, 1, 0, b.first(12), AccOp::kSum,
                             AccType::kU64),
              Status::kInvalidArgument);
    EXPECT_EQ(rma.accumulate(win, 1, 0, b, AccOp::kSum, AccType::kU64),
              Status::kInvalidArgument);
    // Empty ops succeed without issuing anything.
    EXPECT_EQ(rma.put(win, 1, 0, b.first(0)), Status::kOk);
    EXPECT_EQ(rma.get(win, 1, 0, b.first(0)), Status::kOk);
    rma.unlock(win, 1);
    // Nothing was issued, so nothing was ever on the wire.
    const Engine::Stats& st = rma.stats();
    EXPECT_EQ(st.puts_issued, 0u);
    EXPECT_EQ(st.gets_issued, 0u);
    EXPECT_EQ(st.accs_issued, 0u);
    EXPECT_EQ(st.flush_reqs, 0u);
  });
  cluster.run_on(1, [&] { (void)cluster.rma(1).win_create(wins[1]); });
  cluster.run();

  EXPECT_EQ(cluster.rma(1).stats().puts_applied, 0u);
  EXPECT_EQ(cluster.rma(1).stats().dropped_out_of_range, 0u);
  check_conservation(cluster, 2);
}

// --------------------------------------------------------- fence epochs

TEST_P(RmaMode, FenceRingExchange) {
  // Ring halo under fence epochs, plus a self-targeted accumulate: every
  // rank puts into its right neighbour's slot 0 and accumulates +1 into
  // slot 1 of ALL ranks (itself included).  After the closing fence each
  // rank's exposure is fully settled.
  constexpr unsigned kNodes = 3;
  Cluster cluster(config(kNodes, 2));
  std::vector<std::vector<std::byte>> wins(kNodes,
                                           std::vector<std::byte>(16));
  for (unsigned r = 0; r < kNodes; ++r) {
    cluster.run_on(r, [&, r] {
      Engine& rma = cluster.rma(r);
      const WinId win = rma.win_create(wins[r]);
      rma.fence(win);  // open
      const std::uint64_t v = 0xA0 + r;
      EXPECT_EQ(rma.put(win, (r + 1) % kNodes, 0, pack_elems<std::uint64_t>({v})),
                Status::kOk);
      for (unsigned t = 0; t < kNodes; ++t) {
        EXPECT_EQ(rma.accumulate(win, t, 8, pack_elems<std::uint64_t>({1}),
                                 AccOp::kSum, AccType::kU64),
                  Status::kOk);
      }
      rma.fence(win);  // close: flush_all + barrier
    });
  }
  cluster.run();

  for (unsigned r = 0; r < kNodes; ++r) {
    const unsigned left = (r + kNodes - 1) % kNodes;
    EXPECT_EQ(read_elem<std::uint64_t>(wins[r], 0), 0xA0 + left)
        << "rank " << r;
    EXPECT_EQ(read_elem<std::uint64_t>(wins[r], 8), kNodes) << "rank " << r;
    const Engine::Stats& st = cluster.rma(r).stats();
    EXPECT_EQ(st.epochs_opened, 1u);
    EXPECT_EQ(st.epochs_closed, 1u);
  }
  check_conservation(cluster, kNodes);
}

// ------------------------------------------------- per-peer state at scale

// Per-peer state is made on first contact, so what a rank holds depends on
// whom it talks to, not on the cluster size.  After win_create (a Bruck
// allgather) and one fence/put/fence ring step, each rank has touched two
// window peers (left as target, right as origin) at every N, and has gates
// only towards the partners of the dissemination barrier inside fence,
// which the allgather's rounds share — log2 N of them, its right neighbour
// among them.  The allgather posts one receive per round, so the request
// pool stays within ⌈log2 N⌉ + 2 instead of the ring's N − 1.  Counts, not
// heap bytes, keep this fast and deterministic.
TEST(RmaScaling, PerPeerStateFollowsContactsNotClusterSize) {
  for (const unsigned nodes : {32u, 64u, 128u}) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.cpus_per_node = 2;
    cfg.pioman = false;
    cfg.rma = true;
    Cluster cluster(cfg);
    std::vector<std::vector<std::byte>> wins(nodes,
                                             std::vector<std::byte>(8));
    std::vector<WinId> ids(nodes);
    for (unsigned r = 0; r < nodes; ++r) {
      cluster.run_on(r, [&, r] {
        Engine& rma = cluster.rma(r);
        ids[r] = rma.win_create(wins[r]);
        rma.fence(ids[r]);
        EXPECT_EQ(rma.put(ids[r], (r + 1) % nodes, 0,
                          pack_elems<std::uint64_t>({r})),
                  Status::kOk);
        rma.fence(ids[r]);
      });
    }
    cluster.run();

    unsigned log2n = 0;
    while ((1u << log2n) < nodes) ++log2n;
    for (unsigned r = 0; r < nodes; ++r) {
      EXPECT_EQ(read_elem<std::uint64_t>(wins[r], 0), (r + nodes - 1) % nodes);
      EXPECT_EQ(cluster.rma(r).peer_slots(ids[r]), 2u)
          << "N=" << nodes << " rank " << r;
      EXPECT_EQ(cluster.comm(r).gates_created(), log2n)
          << "N=" << nodes << " rank " << r;
      EXPECT_EQ(cluster.comm(r).requests_live(), 0u) << "rank " << r;
      EXPECT_LE(cluster.comm(r).requests_pooled(), log2n + 2)
          << "N=" << nodes << " rank " << r;
      const std::string node = "node" + std::to_string(r);
      EXPECT_EQ(cluster.metrics().value(node + "/nm/gates"), log2n);
      EXPECT_EQ(cluster.metrics().value(node + "/nm/requests/live"), 0.0);
      EXPECT_LE(cluster.metrics().value(node + "/nm/requests/pooled"),
                log2n + 2);
    }
    check_conservation(cluster, nodes);
  }
}

// The fabric keeps occupancy state only for links that carried traffic,
// and no collective keeps a buffer with a block per rank once done.  In
// the run above rank r sends to r + 2^k for every round k of the allgather
// and the fence's barrier (one of them its right neighbour, the put's
// target), and the target's put completion comes back over (r + 1 → r): a
// control packet, which uses a link but makes no gate.  Bruck's N-block
// scratch is gone as soon as win_create returns; what the fences'
// barriers keep is their token and sinks, one byte per round plus one.
TEST(RmaScaling, FabricLinksAndCollScratchFollowUse) {
  for (const unsigned nodes : {32u, 64u, 128u}) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.cpus_per_node = 2;
    cfg.pioman = false;
    cfg.rma = true;
    Cluster cluster(cfg);
    EXPECT_EQ(cluster.fabric().link_entries(), 0u);
    std::vector<std::vector<std::byte>> wins(nodes,
                                             std::vector<std::byte>(8));
    std::vector<std::size_t> scratch_after_create(nodes, 1);
    for (unsigned r = 0; r < nodes; ++r) {
      cluster.run_on(r, [&, r] {
        Engine& rma = cluster.rma(r);
        const WinId win = rma.win_create(wins[r]);
        scratch_after_create[r] = cluster.coll(r).scratch_bytes();
        rma.fence(win);
        EXPECT_EQ(rma.put(win, (r + 1) % nodes, 0,
                          pack_elems<std::uint64_t>({r})),
                  Status::kOk);
        rma.fence(win);
      });
    }
    cluster.run();

    std::size_t rounds = 0;
    for (unsigned d = 1; d < nodes; d <<= 1) ++rounds;
    std::set<std::pair<unsigned, unsigned>> used;
    for (unsigned r = 0; r < nodes; ++r) {
      for (unsigned d = 1; d < nodes; d <<= 1) used.emplace(r, (r + d) % nodes);
      used.emplace((r + 1) % nodes, r);
      EXPECT_EQ(scratch_after_create[r], 0u) << "N=" << nodes << " rank " << r;
      EXPECT_LE(cluster.coll(r).scratch_bytes(), rounds + 1) << "rank " << r;
    }
    EXPECT_EQ(cluster.fabric().link_entries(), used.size()) << "N=" << nodes;
  }
}

// ------------------------------------------------- passive-target claim

// The tentpole assertion: under PIOMan the target of an entire RMA epoch
// performs ZERO library calls while it happens — every put, accumulate,
// get, and fence ack is applied in engine context (idle-core poll fibers
// and tasklets).  api_calls counts every public entry, so the target's
// count must still be exactly 1 (its collective win_create) afterwards.
TEST(RmaPassiveTarget, TargetMakesZeroCallsDuringEpoch) {
  constexpr std::size_t kBytes = 4096;
  constexpr std::size_t kLen = 1024;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;
  cfg.rma = true;
  Cluster cluster(cfg);
  std::vector<std::byte> origin_win(8);
  std::vector<std::byte> target_win(kBytes);
  std::vector<std::byte> sent(kLen);
  for (std::size_t i = 0; i < kLen; ++i) sent[i] = pat(i);
  std::vector<std::byte> got(kLen);

  cluster.run_on(0, [&] {
    Engine& rma = cluster.rma(0);
    const WinId win = rma.win_create(origin_win);
    rma.lock(win, 1);
    EXPECT_EQ(rma.put(win, 1, 0, sent), Status::kOk);
    EXPECT_EQ(rma.accumulate(win, 1, kLen, pack_elems<std::uint64_t>({5}),
                             AccOp::kSum, AccType::kU64),
              Status::kOk);
    rma.flush(win, 1);
    EXPECT_EQ(rma.get(win, 1, 0, got), Status::kOk);
    rma.unlock(win, 1);  // flushes the get too
  });
  cluster.run_on(1, [&] {
    (void)cluster.rma(1).win_create(target_win);
    // Pure application compute from here on: not one library call.
    marcel::this_thread::compute(500 * kUs);
  });
  cluster.run();

  const Engine::Stats& tgt = cluster.rma(1).stats();
  EXPECT_EQ(tgt.api_calls, 1u) << "the target called into the library "
                                  "during a passive epoch";
  EXPECT_EQ(tgt.puts_applied, 1u);
  EXPECT_EQ(tgt.accs_applied, 1u);
  EXPECT_EQ(tgt.gets_served, 1u);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(read_elem<std::uint64_t>(target_win, kLen), 5u);
  check_conservation(cluster, 2);
}

// ------------------------------------------------------- trace assembly

TEST(RmaTracing, EpochAssemblesAsCompleteRmaTrace) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;
  cfg.rma = true;
  cfg.tracing = true;
  Cluster cluster(cfg);
  std::vector<std::byte> wins[2] = {std::vector<std::byte>(256),
                                    std::vector<std::byte>(256)};
  std::vector<std::byte> buf(64, std::byte{0x11});

  cluster.run_on(0, [&] {
    Engine& rma = cluster.rma(0);
    const WinId win = rma.win_create(wins[0]);
    rma.lock(win, 1);
    EXPECT_EQ(rma.put(win, 1, 0, buf), Status::kOk);
    EXPECT_EQ(rma.get(win, 1, 64, buf), Status::kOk);
    rma.flush(win, 1);
    rma.unlock(win, 1);
  });
  cluster.run_on(1, [&] { (void)cluster.rma(1).win_create(wins[1]); });
  cluster.run();

  const tracing::Assembly& as = cluster.trace_assembly();
  const tracing::TraceView* rma_trace = nullptr;
  unsigned rma_traces = 0;
  for (const tracing::TraceView& t : as.traces) {
    if (std::string_view(t.kind) == "rma") {
      ++rma_traces;
      rma_trace = &t;
    }
  }
  // Exactly one epoch was opened (on the origin); the passive target
  // records nothing.
  ASSERT_EQ(rma_traces, 1u);
  ASSERT_NE(rma_trace, nullptr);
  EXPECT_TRUE(rma_trace->complete);
  EXPECT_EQ(rma_trace->root_node, 0u);
  ASSERT_FALSE(rma_trace->spans.empty());
  const tracing::SpanView& root = rma_trace->spans.front();
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.open_kind, tracing::EventKind::kRmaEpochStart);
  // put + get + flush + unlock's flush = 4 rma.op children of the epoch.
  unsigned ops = 0;
  for (std::size_t i = 1; i < rma_trace->spans.size(); ++i) {
    const tracing::SpanView& s = rma_trace->spans[i];
    EXPECT_EQ(s.open_kind, tracing::EventKind::kRmaOpIssued);
    EXPECT_EQ(s.parent, root.id);
    EXPECT_TRUE(s.closed);
    ++ops;
  }
  EXPECT_EQ(ops, 4u);
}

// ---------------------------------------------- fuzz + fault accumulate

/// One concurrent-accumulate workload under a fuzzed schedule and a lossy
/// fabric: three origins hammer rank 0's exposure with u64-sum, f64-sum,
/// and u64-max accumulates from inside concurrent lock epochs.  Exactness
/// of the final values is the atomicity claim: engine-context application
/// never interleaves inside a combine loop, and the reliable sublayer
/// delivers each op exactly once.  Returns a diagnostic (empty = passed).
std::string acc_soak_one(std::uint64_t seed, bool pioman) {
  constexpr unsigned kNodes = 4;
  constexpr unsigned kIters = 5;
  constexpr std::size_t kElems = 4;
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 2;
  cfg.pioman = pioman;
  cfg.rma = true;
  cfg.fuzz_seed = seed;
  cfg.nm.reliable = true;
  cfg.faults.defaults.drop = 0.01;
  cfg.faults.defaults.duplicate = 0.01;
  cfg.faults.defaults.reorder = 0.01;
  cfg.faults.defaults.corrupt = 0.01;

  const auto val = [](unsigned r, unsigned i, std::size_t e) {
    return static_cast<std::uint64_t>(r * 1000 + i * 10 + e);
  };

  Cluster cluster(cfg);
  std::vector<std::vector<std::byte>> wins(
      kNodes, std::vector<std::byte>(3 * kElems * 8, std::byte{0}));
  for (unsigned r = 0; r < kNodes; ++r) {
    cluster.run_on(r, [&, r] {
      Engine& rma = cluster.rma(r);
      const WinId win = rma.win_create(wins[r]);
      if (r != 0) {
        rma.lock(win, 0);
        for (unsigned i = 0; i < kIters; ++i) {
          std::vector<std::uint64_t> u(kElems);
          std::vector<double> d(kElems);
          for (std::size_t e = 0; e < kElems; ++e) {
            u[e] = val(r, i, e);
            d[e] = static_cast<double>(val(r, i, e));
          }
          rma.accumulate(win, 0, 0, pack_elems(u), AccOp::kSum,
                         AccType::kU64);
          rma.accumulate(win, 0, kElems * 8, pack_elems(d), AccOp::kSum,
                         AccType::kF64);
          rma.accumulate(win, 0, 2 * kElems * 8, pack_elems(u), AccOp::kMax,
                         AccType::kU64);
        }
        rma.unlock(win, 0);
      }
      // Rank 0 heads straight into the barrier: under the app-driven
      // baseline the barrier wait is what drives its engine (and thereby
      // the accumulate application); under PIOMan idle cores do it.
      cluster.coll(r).wait(cluster.coll(r).ibarrier());
    });
  }
  cluster.run();

  std::string diag;
  const auto fail = [&](const std::string& what) {
    if (diag.empty()) {
      diag = "seed " + std::to_string(seed) +
             (pioman ? " pioman: " : " app-driven: ") + what;
    }
  };
  for (std::size_t e = 0; e < kElems; ++e) {
    std::uint64_t usum = 0;
    double fsum = 0.0;
    std::uint64_t umax = 0;
    for (unsigned r = 1; r < kNodes; ++r) {
      for (unsigned i = 0; i < kIters; ++i) {
        usum += val(r, i, e);
        fsum += static_cast<double>(val(r, i, e));
        umax = std::max(umax, val(r, i, e));
      }
    }
    if (read_elem<std::uint64_t>(wins[0], e * 8) != usum) {
      fail("u64 sum mismatch at elem " + std::to_string(e));
    }
    if (read_elem<double>(wins[0], (kElems + e) * 8) != fsum) {
      fail("f64 sum mismatch at elem " + std::to_string(e));
    }
    if (read_elem<std::uint64_t>(wins[0], (2 * kElems + e) * 8) != umax) {
      fail("u64 max mismatch at elem " + std::to_string(e));
    }
  }
  std::uint64_t issued = 0;
  for (unsigned r = 1; r < kNodes; ++r) {
    issued += cluster.rma(r).stats().accs_issued;
  }
  if (cluster.rma(0).stats().accs_applied != issued) {
    fail("accs applied " +
         std::to_string(cluster.rma(0).stats().accs_applied) + " != issued " +
         std::to_string(issued));
  }
  if (!diag.empty() && cluster.fuzzer() != nullptr) {
    diag += "\n" + cluster.fuzzer()->format_trace();
  }
  return diag;
}

TEST(RmaFuzzSoak, AccumulatesExactAcrossSeedsUnderFaults) {
  // 100 seeds x both progression modes = 200 lossy, schedule-perturbed
  // runs by default; PM2_FUZZ_SOAK_SEEDS deepens the sweep in CI.  Seed 0
  // means "fuzzer off", so start at 1.
  std::uint64_t seeds = 100;
  if (const char* env = std::getenv("PM2_FUZZ_SOAK_SEEDS"); env != nullptr) {
    seeds = std::strtoull(env, nullptr, 0);
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const bool pioman : {true, false}) {
      const std::string diag = acc_soak_one(seed, pioman);
      ASSERT_TRUE(diag.empty()) << diag;
    }
  }
}

TEST(RmaFuzzSoak, LossyRunsAreDeterministic) {
  const std::string a = acc_soak_one(0xbeef, true);
  const std::string b = acc_soak_one(0xbeef, true);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Modes, RmaMode, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? std::string("Pioman")
                                              : std::string("AppDriven");
                         });

}  // namespace
}  // namespace pm2::nm::rma
