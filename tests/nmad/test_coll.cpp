// Nonblocking collective engine (nmad/coll): randomized correctness of
// every collective against scalar references — across world sizes
// (including non-powers-of-two), non-divisible payload sizes, every
// algorithm, both progression modes — plus overlap behaviour, concurrent
// outstanding collectives, tag-band lockstep, and a seeded fuzz+fault
// soak (PM2_FUZZ_SOAK_SEEDS deepens it in CI).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "nmad/coll/coll.hpp"
#include "nmad/mpi.hpp"
#include "pm2/cluster.hpp"
#include "sim/schedule_fuzz.hpp"

namespace pm2::nm::coll {
namespace {

using Param = std::tuple<unsigned /*nodes*/, bool /*pioman*/>;

struct WorldOptions {
  bool faults = false;          // 1% drop/dup/reorder/corrupt + reliable
  std::uint64_t fuzz_seed = 0;  // schedule-exploration perturbation
  std::size_t chunk_bytes = 0;  // pipelining granularity (0 = default)
  Algo algo = Algo::kAuto;      // Config::coll_algo (allgather's only knob)
};

class CollWorld : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] unsigned world() const { return std::get<0>(GetParam()); }
  [[nodiscard]] bool pioman() const { return std::get<1>(GetParam()); }

  [[nodiscard]] ClusterConfig config(const WorldOptions& opt) const {
    ClusterConfig cfg;
    cfg.nodes = world();
    cfg.cpus_per_node = 4;
    cfg.pioman = pioman();
    cfg.fuzz_seed = opt.fuzz_seed;
    if (opt.chunk_bytes != 0) cfg.nm.coll_chunk_bytes = opt.chunk_bytes;
    cfg.nm.coll_algo = opt.algo;
    if (opt.faults) {
      cfg.faults.defaults.drop = 0.01;
      cfg.faults.defaults.duplicate = 0.01;
      cfg.faults.defaults.reorder = 0.01;
      cfg.faults.defaults.corrupt = 0.01;
      cfg.nm.reliable = true;
    }
    return cfg;
  }

  /// Run `body(engine)` once per rank; after quiescence, check the
  /// engine-level invariants every healthy run must satisfy.
  template <typename Body>
  void run_world(Body body, const WorldOptions& opt = {}) {
    Cluster cluster(config(opt));
    for (unsigned r = 0; r < world(); ++r) {
      cluster.run_on(r, [&, r] { body(cluster.coll(r)); }, "rank");
    }
    cluster.run();
    std::uint64_t tags0 = cluster.comm(0).coll_tags_used();
    for (unsigned r = 0; r < world(); ++r) {
      const Engine::Stats& st = cluster.coll(r).stats();
      EXPECT_EQ(st.started, st.completed) << "rank " << r;
      EXPECT_EQ(st.ops_executed,
                st.ops_send + st.ops_recv + st.ops_reduce + st.ops_copy)
          << "rank " << r;
      // Every started collective is counted under exactly one algorithm.
      EXPECT_EQ(st.started, st.algo_dissemination + st.algo_binomial +
                                st.algo_binomial_pipeline + st.algo_ring +
                                st.algo_recursive_doubling + st.algo_linear)
          << "rank " << r;
      // Tag blocks are allocated in lockstep: the band cursor must agree
      // across the whole world after any collective sequence.
      EXPECT_EQ(cluster.comm(r).coll_tags_used(), tags0) << "rank " << r;
    }
  }
};

// ------------------------------------------------------------- Schedule

// seal() lays successors out by predecessor in dep() order, which is the
// order op_done() marks them ready: with dep(0,3), dep(1,2), dep(0,2) and
// op 1 already done, completing op 0 readies 3 and then 2.
TEST(Schedule, SuccessorsKeepDepOrder) {
  Schedule s;
  for (int i = 0; i < 4; ++i) s.copy({}, {}, 0);
  s.dep(0, 3);
  s.dep(1, 2);
  s.dep(0, 2);
  s.seal();
  using V = std::vector<std::uint32_t>;
  const auto succ = [&s](std::uint32_t i) {
    const auto sp = s.successors(i);
    return V(sp.begin(), sp.end());
  };
  EXPECT_EQ(succ(0), (V{3, 2}));
  EXPECT_EQ(succ(1), (V{2}));
  EXPECT_TRUE(succ(2).empty());
  EXPECT_TRUE(succ(3).empty());

  V ready;
  const auto complete = [&](std::uint32_t i) {
    for (const std::uint32_t n : s.successors(i)) {
      if (--s.ops[n].deps == 0) ready.push_back(n);
    }
  };
  complete(1);
  EXPECT_TRUE(ready.empty());
  complete(0);
  EXPECT_EQ(ready, (V{3, 2}));

  // A cleared schedule starts empty and seals again.
  s.clear();
  EXPECT_TRUE(s.ops.empty());
  s.copy({}, {}, 0);
  s.seal();
  EXPECT_TRUE(s.successors(0).empty());
}

// ------------------------------------------------------------- ibarrier

TEST_P(CollWorld, BarrierRepeats) {
  run_world([&](Engine& coll) {
    for (int i = 0; i < 4; ++i) coll.wait(coll.ibarrier());
  });
}

TEST_P(CollWorld, BarrierHoldsBackFastRanks) {
  std::vector<SimTime> after(world(), 0);
  Cluster cluster(config({}));
  for (unsigned r = 0; r < world(); ++r) {
    cluster.run_on(r, [&, r] {
      marcel::this_thread::compute(r * 50 * kUs);
      cluster.coll(r).wait(cluster.coll(r).ibarrier());
      after[r] = cluster.now();
    });
  }
  cluster.run();
  const SimTime slowest = (world() - 1) * 50 * kUs;
  for (unsigned r = 0; r < world(); ++r) {
    EXPECT_GE(after[r], slowest) << "rank " << r << " left too early";
  }
}

// --------------------------------------------------------------- ibcast

TEST_P(CollWorld, BcastEveryAlgorithmEveryRoot) {
  for (const Algo algo : {Algo::kBinomial, Algo::kBinomialPipeline}) {
    for (unsigned root = 0; root < world(); ++root) {
      // Odd size and a tiny chunk so the pipelined tree has many chunks.
      constexpr std::size_t kBytes = 4099;
      std::vector<std::vector<std::byte>> bufs(
          world(), std::vector<std::byte>(kBytes));
      for (std::size_t i = 0; i < kBytes; ++i) {
        bufs[root][i] = static_cast<std::byte>((root * 31 + i) & 0xff);
      }
      const std::vector<std::byte> expected = bufs[root];
      run_world(
          [&](Engine& coll) {
            coll.wait(coll.ibcast(bufs[coll.rank()],
                                  static_cast<int>(root), algo));
          },
          {.chunk_bytes = 512});
      for (unsigned r = 0; r < world(); ++r) {
        EXPECT_EQ(bufs[r], expected)
            << "rank " << r << " root " << root << " algo "
            << static_cast<int>(algo);
      }
    }
  }
}

// -------------------------------------------------------- iallreduce_sum

TEST_P(CollWorld, AllreduceEveryAlgorithmMatchesReference) {
  // Non-divisible sizes; values exactly representable so any summation
  // order gives bit-identical results.
  for (const std::size_t elems : {1ul, 7ul, 1000ul, 4099ul}) {
    for (const Algo algo :
         {Algo::kRing, Algo::kRecursiveDoubling, Algo::kAuto}) {
      std::vector<std::vector<double>> data(world(),
                                            std::vector<double>(elems));
      for (unsigned r = 0; r < world(); ++r) {
        for (std::size_t i = 0; i < elems; ++i) {
          data[r][i] =
              static_cast<double>(r + 1) + static_cast<double>(i) * 0.5;
        }
      }
      run_world(
          [&](Engine& coll) {
            coll.wait(coll.iallreduce_sum(data[coll.rank()], algo));
          },
          {.chunk_bytes = 2048});
      const double n = world();
      for (unsigned r = 0; r < world(); ++r) {
        for (std::size_t i = 0; i < elems; i += 53) {
          const double expected =
              n * (n + 1) / 2.0 + n * static_cast<double>(i) * 0.5;
          EXPECT_DOUBLE_EQ(data[r][i], expected)
              << "rank " << r << " elem " << i << " elems " << elems
              << " algo " << static_cast<int>(algo);
        }
      }
    }
  }
}

// --------------------------------------- gather/scatter/allgather/alltoall

TEST_P(CollWorld, GatherScatterRandomizedEveryRoot) {
  std::mt19937 rng(0xc011u + world());
  for (unsigned root = 0; root < world(); ++root) {
    const std::size_t block = 1 + rng() % 300;  // ragged, often odd
    std::vector<std::vector<std::byte>> contrib(
        world(), std::vector<std::byte>(block));
    std::vector<std::byte> gathered(world() * block);
    std::vector<std::byte> source(world() * block);
    std::vector<std::vector<std::byte>> slice(
        world(), std::vector<std::byte>(block));
    for (auto& v : contrib) {
      for (auto& b : v) b = static_cast<std::byte>(rng() & 0xff);
    }
    for (auto& b : source) b = static_cast<std::byte>(rng() & 0xff);
    run_world([&](Engine& coll) {
      const unsigned me = coll.rank();
      coll.wait(coll.igather(contrib[me], gathered,
                             static_cast<int>(root)));
      coll.wait(coll.iscatter(source, slice[me], static_cast<int>(root)));
    });
    for (unsigned r = 0; r < world(); ++r) {
      EXPECT_TRUE(std::equal(contrib[r].begin(), contrib[r].end(),
                             gathered.begin() + r * block))
          << "gather slot " << r << " root " << root;
      EXPECT_TRUE(std::equal(slice[r].begin(), slice[r].end(),
                             source.begin() + r * block))
          << "scatter slot " << r << " root " << root;
    }
  }
}

// Both allgather algorithms (forced through Config::coll_algo, the only
// way to pick one) at empty, one-byte, 8-byte and 4 KiB blocks plus a
// ragged one, checked against the scalar reference; alltoall rides
// along at the same block.
TEST_P(CollWorld, AllgatherAlltoallRandomized) {
  std::mt19937 rng(0xa110u + world());
  const std::size_t ragged = 1 + rng() % 200;
  for (const Algo algo : {Algo::kRing, Algo::kRecursiveDoubling}) {
    for (const std::size_t block : {0ul, 1ul, 8ul, 4096ul, ragged}) {
      std::vector<std::vector<std::byte>> mine(world(),
                                               std::vector<std::byte>(block));
      std::vector<std::vector<std::byte>> all(
          world(), std::vector<std::byte>(world() * block));
      std::vector<std::vector<std::byte>> tx(
          world(), std::vector<std::byte>(world() * block));
      std::vector<std::vector<std::byte>> rx(
          world(), std::vector<std::byte>(world() * block));
      for (auto& v : mine) {
        for (auto& b : v) b = static_cast<std::byte>(rng() & 0xff);
      }
      for (auto& v : tx) {
        for (auto& b : v) b = static_cast<std::byte>(rng() & 0xff);
      }
      std::vector<Algo> ran(world(), Algo::kAuto);
      run_world(
          [&](Engine& coll) {
            const unsigned me = coll.rank();
            CollRequest* req = coll.iallgather(mine[me], all[me]);
            ran[me] = req->algo();
            coll.wait(req);
            coll.wait(coll.ialltoall(tx[me], rx[me], block));
          },
          {.algo = algo});
      for (unsigned r = 0; r < world(); ++r) {
        EXPECT_EQ(ran[r], algo) << "rank " << r;
        for (unsigned s = 0; s < world(); ++s) {
          EXPECT_TRUE(std::equal(mine[s].begin(), mine[s].end(),
                                 all[r].begin() + s * block))
              << "allgather rank " << r << " block " << s << " size "
              << block << " algo " << static_cast<int>(algo);
          EXPECT_TRUE(std::equal(tx[s].begin() + r * block,
                                 tx[s].begin() + (r + 1) * block,
                                 rx[r].begin() + s * block))
              << "alltoall rank " << r << " from " << s << " size " << block;
        }
      }
    }
  }
}

// The autotuner sends small blocks through Bruck from four ranks on and
// keeps the ring below that and for blocks above 1 KiB; a forced
// algorithm wins at every size, and an allreduce/bcast-only force (here
// binomial) leaves allgather to the autotuner.
TEST_P(CollWorld, AllgatherAutotunerPicks) {
  const Algo small = world() >= 4 ? Algo::kRecursiveDoubling : Algo::kRing;
  for (const Algo forced : {Algo::kAuto, Algo::kBinomial, Algo::kRing,
                            Algo::kRecursiveDoubling}) {
    const bool tuned = forced == Algo::kAuto || forced == Algo::kBinomial;
    std::vector<Algo> ran(world(), Algo::kAuto);
    run_world(
        [&](Engine& coll) {
          EXPECT_EQ(coll.choose_allgather(8), tuned ? small : forced);
          EXPECT_EQ(coll.choose_allgather(1024), tuned ? small : forced);
          EXPECT_EQ(coll.choose_allgather(1025), tuned ? Algo::kRing : forced);
          std::vector<std::byte> all(world() * 8);
          const std::uint64_t mine = coll.rank();
          CollRequest* req = coll.iallgather(
              std::as_bytes(std::span<const std::uint64_t>(&mine, 1)), all);
          ran[coll.rank()] = req->algo();
          coll.wait(req);
        },
        {.algo = forced});
    for (unsigned r = 0; r < world(); ++r) {
      EXPECT_EQ(ran[r], tuned ? small : forced)
          << "rank " << r << " forced " << static_cast<int>(forced);
    }
  }
}

// ------------------------------------------------- concurrent collectives

TEST_P(CollWorld, MultipleOutstandingCollectives) {
  constexpr std::size_t kElems = 513;
  std::vector<std::vector<double>> red(world(),
                                       std::vector<double>(kElems, 1.0));
  std::vector<std::vector<std::byte>> bc(world(),
                                         std::vector<std::byte>(777));
  for (auto& b : bc[0]) b = std::byte{0x5e};
  run_world([&](Engine& coll) {
    const unsigned me = coll.rank();
    // Same launch order everywhere (the MPI rule); waits in reverse —
    // all three schedules are in flight at once.
    CollRequest* a = coll.ibarrier();
    CollRequest* b = coll.iallreduce_sum(red[me]);
    CollRequest* c = coll.ibcast(bc[me], 0);
    coll.wait(c);
    coll.wait(b);
    coll.wait(a);
  });
  for (unsigned r = 0; r < world(); ++r) {
    EXPECT_DOUBLE_EQ(red[r][0], static_cast<double>(world()));
    EXPECT_DOUBLE_EQ(red[r][kElems - 1], static_cast<double>(world()));
    EXPECT_EQ(bc[r][0], std::byte{0x5e});
    EXPECT_EQ(bc[r][776], std::byte{0x5e});
  }
}

TEST_P(CollWorld, TestPollsToCompletion) {
  std::vector<int> polls(world(), 0);
  run_world([&](Engine& coll) {
    CollRequest* req = coll.ibarrier();
    // Poll with a gap, as an application event loop would — a zero-work
    // spin never yields the fiber, so virtual time could not advance.
    while (!coll.test(req)) {
      ++polls[coll.rank()];
      marcel::this_thread::compute(5 * kUs);
    }
  });
}

// ------------------------------------------------------- request pooling

// One pooled CollRequest carries three differently shaped schedules in a
// row; its warm op, edge and successor buffers must not leak state from
// one schedule into the next.
TEST(CollPool, OneRequestReusedAcrossSchedulesStaysCorrect) {
  constexpr unsigned kWorld = 8;
  constexpr std::size_t kElems = 24;
  for (const bool pioman : {false, true}) {
    ClusterConfig cfg;
    cfg.nodes = kWorld;
    cfg.cpus_per_node = 4;
    cfg.pioman = pioman;
    Cluster cluster(cfg);
    std::vector<std::vector<double>> rd(kWorld), ring(kWorld);
    std::vector<std::vector<CollRequest*>> used(kWorld);
    for (unsigned r = 0; r < kWorld; ++r) {
      rd[r].assign(kElems, static_cast<double>(r + 1));
      ring[r].assign(kElems, static_cast<double>(2 * r));
      cluster.run_on(r, [&, r] {
        Engine& coll = cluster.coll(r);
        CollRequest* a = coll.iallreduce_sum(rd[r], Algo::kRecursiveDoubling);
        used[r].push_back(a);
        coll.wait(a);
        CollRequest* b = coll.ibarrier();
        used[r].push_back(b);
        coll.wait(b);
        CollRequest* c = coll.iallreduce_sum(ring[r], Algo::kRing);
        used[r].push_back(c);
        coll.wait(c);
      }, "rank");
    }
    cluster.run();
    for (unsigned r = 0; r < kWorld; ++r) {
      ASSERT_EQ(used[r].size(), 3u);
      EXPECT_EQ(used[r][1], used[r][0]) << "rank " << r << " pioman " << pioman;
      EXPECT_EQ(used[r][2], used[r][0]) << "rank " << r << " pioman " << pioman;
      for (std::size_t k = 0; k < kElems; ++k) {
        EXPECT_EQ(rd[r][k], 36.0) << "rank " << r << " elem " << k;
        EXPECT_EQ(ring[r][k], 56.0) << "rank " << r << " elem " << k;
      }
      const Engine::Stats& st = cluster.coll(r).stats();
      EXPECT_EQ(st.completed, 3u);
      EXPECT_EQ(st.algo_recursive_doubling, 1u);
      EXPECT_EQ(st.algo_ring, 1u);
    }
  }
}

// --------------------------------------------------------------- overlap

TEST_P(CollWorld, PiomanOverlapsAllreduceWithCompute) {
  if (!pioman() || world() < 2) GTEST_SKIP();
  constexpr std::size_t kElems = 32768;  // 256 KiB: the rendezvous regime
  constexpr int kIters = 4;
  std::vector<std::vector<double>> data(world(),
                                        std::vector<double>(kElems, 1.0));
  SimDuration comm = 0;
  SimTime total = 0;
  Cluster cluster(config({}));
  for (unsigned r = 0; r < world(); ++r) {
    cluster.run_on(r, [&, r] {
      Engine& coll = cluster.coll(r);
      coll.wait(coll.ibarrier());
      const SimTime t0 = cluster.now();
      for (int i = 0; i < kIters; ++i) {
        coll.wait(coll.iallreduce_sum(data[r]));
      }
      const SimTime t1 = cluster.now();
      const SimDuration my_comm = (t1 - t0) / kIters;
      coll.wait(coll.ibarrier());
      const SimTime t2 = cluster.now();
      for (int i = 0; i < kIters; ++i) {
        CollRequest* req = coll.iallreduce_sum(data[r]);
        marcel::this_thread::compute(my_comm);
        coll.wait(req);
      }
      const SimTime t3 = cluster.now();
      coll.wait(coll.ibarrier());
      if (r == 0) {
        comm = my_comm;
        total = (t3 - t2) / kIters;
      }
    });
  }
  cluster.run();
  // Per iteration the engine had T_comm of communication and T_comm of
  // compute.  Zero overlap would cost 2*T_comm; require that at least a
  // quarter of the communication hid behind the compute (the bench
  // reports far more; the margin keeps the test robust to model tweaks).
  EXPECT_LT(total, comm + comm - comm / 4)
      << "comm=" << comm << "ns total=" << total << "ns";
}

// ------------------------------------------------------ fuzz + fault soak

/// One mixed collective workload under a fuzzed schedule and a lossy
/// fabric; returns a diagnostic string (empty = passed) so the soak can
/// report the seed that broke.
std::string soak_one(std::uint64_t seed) {
  constexpr unsigned kNodes = 4;
  constexpr std::size_t kElems = 96;
  constexpr std::size_t kBlock = 24;        // autotuned to Bruck
  constexpr std::size_t kRingBlock = 1100;  // above Bruck's rule: the ring
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;  // lossy runs need background progression
  cfg.fuzz_seed = seed;
  cfg.nm.reliable = true;
  cfg.nm.coll_chunk_bytes = 64;  // many chunks even at tiny sizes
  cfg.faults.defaults.drop = 0.01;
  cfg.faults.defaults.duplicate = 0.01;
  cfg.faults.defaults.reorder = 0.01;
  cfg.faults.defaults.corrupt = 0.01;
  Cluster cluster(cfg);

  std::vector<std::vector<double>> red(kNodes,
                                       std::vector<double>(kElems));
  std::vector<std::vector<std::byte>> bc(kNodes,
                                         std::vector<std::byte>(331));
  std::vector<std::vector<std::byte>> all(
      kNodes, std::vector<std::byte>(kNodes * kBlock));
  std::vector<std::vector<std::byte>> rx(
      kNodes, std::vector<std::byte>(kNodes * kBlock));
  std::vector<std::vector<std::byte>> tx(
      kNodes, std::vector<std::byte>(kNodes * kBlock));
  std::vector<std::vector<std::byte>> wide(kNodes,
                                           std::vector<std::byte>(kRingBlock));
  std::vector<std::vector<std::byte>> wide_all(
      kNodes, std::vector<std::byte>(kNodes * kRingBlock));
  std::vector<Algo> small_algo(kNodes, Algo::kAuto);
  std::vector<Algo> wide_algo(kNodes, Algo::kAuto);
  for (unsigned r = 0; r < kNodes; ++r) {
    for (std::size_t i = 0; i < kRingBlock; ++i) {
      wide[r][i] = static_cast<std::byte>((r * 17 + i * 3) & 0xff);
    }
    for (std::size_t i = 0; i < kElems; ++i) {
      red[r][i] = static_cast<double>(r + 1) + static_cast<double>(i);
    }
    for (std::size_t i = 0; i < tx[r].size(); ++i) {
      tx[r][i] = static_cast<std::byte>((r * 131 + i) & 0xff);
    }
  }
  for (auto& b : bc[1]) b = std::byte{0xd1};

  for (unsigned r = 0; r < kNodes; ++r) {
    cluster.run_on(r, [&, r] {
      Engine& coll = cluster.coll(r);
      coll.wait(coll.ibarrier());
      coll.wait(coll.iallreduce_sum(red[r], Algo::kRing));
      coll.wait(coll.ibcast(bc[r], 1, Algo::kBinomialPipeline));
      CollRequest* a = coll.iallgather(
          std::span<const std::byte>(tx[r]).first(kBlock), all[r]);
      CollRequest* b = coll.ialltoall(tx[r], rx[r], kBlock);
      CollRequest* c = coll.iallgather(wide[r], wide_all[r]);
      small_algo[r] = a->algo();
      wide_algo[r] = c->algo();
      coll.wait(b);
      coll.wait(c);
      coll.wait(a);
      coll.wait(coll.iallreduce_sum(red[r], Algo::kRecursiveDoubling));
      coll.wait(coll.ibarrier());
    });
  }
  cluster.run();

  std::string diag;
  const auto fail = [&](const std::string& what) {
    if (diag.empty()) {
      diag = "seed " + std::to_string(seed) + ": " + what;
    }
  };
  const double n = kNodes;
  for (unsigned r = 0; r < kNodes; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      // Two all-reduces: x -> n*sum_r(...) then multiplied by n again.
      const double once = n * (n + 1) / 2.0 + n * static_cast<double>(i);
      if (red[r][i] != n * once) {
        fail("allreduce mismatch at rank " + std::to_string(r));
      }
    }
    for (std::size_t i = 0; i < bc[r].size(); ++i) {
      if (bc[r][i] != std::byte{0xd1}) {
        fail("bcast mismatch at rank " + std::to_string(r));
      }
    }
    for (unsigned s = 0; s < kNodes; ++s) {
      if (!std::equal(tx[s].begin(), tx[s].begin() + kBlock,
                      all[r].begin() + s * kBlock)) {
        fail("Bruck allgather mismatch at rank " + std::to_string(r));
      }
      if (!std::equal(wide[s].begin(), wide[s].end(),
                      wide_all[r].begin() + s * kRingBlock)) {
        fail("ring allgather mismatch at rank " + std::to_string(r));
      }
      if (!std::equal(tx[s].begin() + r * kBlock,
                      tx[s].begin() + (r + 1) * kBlock,
                      rx[r].begin() + s * kBlock)) {
        fail("alltoall mismatch at rank " + std::to_string(r));
      }
    }
    if (small_algo[r] != Algo::kRecursiveDoubling ||
        wide_algo[r] != Algo::kRing) {
      fail("allgather autotuner picks changed at rank " + std::to_string(r));
    }
    const Engine::Stats& st = cluster.coll(r).stats();
    if (st.started != st.completed) {
      fail("unfinished collectives on rank " + std::to_string(r));
    }
  }
  if (!diag.empty() && cluster.fuzzer() != nullptr) {
    diag += "\n" + cluster.fuzzer()->format_trace();
  }
  return diag;
}

TEST(CollFuzzSoak, CorrectAcrossSeedsUnderFaults) {
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

TEST(CollFuzzSoak, LossyRunsAreDeterministic) {
  // Same seed -> identical virtual-time outcome, even with faults and a
  // perturbed schedule (the property that makes soak failures replayable).
  const std::string a = soak_one(0xdecaf);
  const std::string b = soak_one(0xdecaf);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, CollWorld,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 8u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) +
             (std::get<1>(pinfo.param) ? "_Pioman" : "_AppDriven");
    });

}  // namespace
}  // namespace pm2::nm::coll
