// Collective latency by algorithm: every column forces one schedule-DAG
// algorithm through the coll engine; "ar auto" and "ag auto" are the
// autotuner's picks.  Allgather takes no algorithm argument, so its
// columns force one through Config::coll_algo.
// Set PM2_METRICS=<path> to export the last run's registry (including the
// nodeN/coll counters) as metrics.json.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nmad/mpi.hpp"

namespace {

using namespace pm2;
using nm::coll::Algo;

template <typename Body>
double run_collective_us(bool pioman, unsigned nodes, int iters, Body&& body,
                         Algo forced = Algo::kAuto) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = pioman;
  cfg.nm.coll_algo = forced;
  Cluster cluster(cfg);
  std::vector<mpi::Comm> comms;
  comms.reserve(nodes);
  for (unsigned r = 0; r < nodes; ++r) {
    comms.emplace_back(cluster.comm(r), nodes, cluster.coll_ptr(r));
  }
  SimTime t0 = 0, t1 = 0;
  for (unsigned r = 0; r < nodes; ++r) {
    cluster.run_on(r, [&, r] {
      comms[r].barrier();  // align start
      if (r == 0) t0 = cluster.now();
      for (int i = 0; i < iters; ++i) body(comms[r]);
      comms[r].barrier();
      if (r == 0) t1 = cluster.now();
    });
  }
  cluster.run();
  return to_us(t1 - t0) / iters;
}

}  // namespace

int main() {
  using namespace pm2::bench;
  constexpr int kIters = 10;
  constexpr std::size_t kBytes = 256 * 1024;
  constexpr std::size_t kElems = kBytes / sizeof(double);

  std::printf("Collective latency by schedule-DAG algorithm "
              "(4 cores/node, %zu KiB payloads)\n", kBytes / 1024);
  print_header("Per-operation time (us)",
               {"nodes", "barrier", "bc binom", "bc pipe", "ar ring",
                "ar rd", "ar auto"});
  for (const unsigned nodes : {2u, 4u, 8u}) {
    std::vector<std::byte> buf(kBytes, std::byte{1});
    std::vector<std::vector<double>> red(nodes,
                                         std::vector<double>(kElems, 1.0));
    const auto grad = [&](mpi::Comm& c) -> std::span<double> {
      return red[static_cast<unsigned>(c.rank())];
    };
    const double barrier_us = run_collective_us(
        true, nodes, kIters, [](mpi::Comm& c) { c.barrier(); });
    const double bc_binom = run_collective_us(
        true, nodes, kIters, [&](mpi::Comm& c) {
          c.coll().wait(c.coll().ibcast(buf, 0, Algo::kBinomial));
        });
    const double bc_pipe = run_collective_us(
        true, nodes, kIters, [&](mpi::Comm& c) {
          c.coll().wait(c.coll().ibcast(buf, 0, Algo::kBinomialPipeline));
        });
    const double ar_ring = run_collective_us(
        true, nodes, kIters, [&](mpi::Comm& c) {
          c.coll().wait(c.coll().iallreduce_sum(grad(c), Algo::kRing));
        });
    const double ar_rd = run_collective_us(
        true, nodes, kIters, [&](mpi::Comm& c) {
          c.coll().wait(
              c.coll().iallreduce_sum(grad(c), Algo::kRecursiveDoubling));
        });
    const double ar_auto = run_collective_us(
        true, nodes, kIters,
        [&](mpi::Comm& c) { c.allreduce_sum(grad(c)); });
    print_cell(std::to_string(nodes));
    print_cell(barrier_us);
    print_cell(bc_binom);
    print_cell(bc_pipe);
    print_cell(ar_ring);
    print_cell(ar_rd);
    print_cell(ar_auto);
    end_row();
  }
  std::printf(
      "\nBarrier scales ~log2(n) (dissemination).  Chunk pipelining\n"
      "overlaps the binomial tree's stages.  For all-reduce the ring is\n"
      "bandwidth-optimal but pays 2(n-1) step latencies: it wins while\n"
      "its per-step blocks stay eager; once blocks go rendezvous (as\n"
      "here, 256 KiB / n), every step eats a handshake round-trip and\n"
      "chunk-pipelined recursive doubling wins -- the regimes the\n"
      "autotuner switches between (ar auto).\n");

  // Allgather: the ring's n-1 dependent steps against Bruck's ⌈log2 n⌉
  // rounds, whose round-d message carries min(d, n-d) blocks.  Fewer
  // iterations than above: the 64-rank rows dominate the run time.
  constexpr int kAgIters = 4;
  for (const bool pioman : {false, true}) {
    print_header(pioman ? "Allgather per-operation time (us), PIOMan"
                        : "Allgather per-operation time (us), app-driven",
                 {"nodes", "block", "ag ring", "ag rd", "ag auto", "auto"});
    for (const unsigned nodes : {4u, 8u, 64u}) {
      for (const std::size_t block : {8ul, 512ul, 4096ul, 32768ul}) {
        std::vector<std::vector<std::byte>> mine(
            nodes, std::vector<std::byte>(block, std::byte{7}));
        std::vector<std::vector<std::byte>> all(
            nodes, std::vector<std::byte>(nodes * block));
        const auto allgather = [&](mpi::Comm& c) {
          const auto r = static_cast<unsigned>(c.rank());
          c.allgather(mine[r], all[r]);
        };
        const double ring = run_collective_us(pioman, nodes, kAgIters,
                                              allgather, Algo::kRing);
        const double rd = run_collective_us(pioman, nodes, kAgIters,
                                            allgather,
                                            Algo::kRecursiveDoubling);
        Algo pick = Algo::kAuto;
        const double autotuned = run_collective_us(
            pioman, nodes, kAgIters, [&](mpi::Comm& c) {
              pick = c.coll().choose_allgather(block);
              allgather(c);
            });
        print_cell(std::to_string(nodes));
        print_cell(size_label(block));
        print_cell(ring);
        print_cell(rd);
        print_cell(autotuned);
        print_cell(pick == Algo::kRing ? "ring" : "rd");
        end_row();
      }
    }
  }
  std::printf(
      "\nBruck trades the ring's n-1 step latencies for ⌈log2 n⌉ and\n"
      "posts that many receives instead of n-1, but its rounds carry up\n"
      "to n/2 blocks and it stages all n in a scratch buffer the ring\n"
      "does not need.  ag auto takes it for blocks up to 1 KiB from 4\n"
      "ranks on, where it wins every cell; with 4 ranks the ring wins at\n"
      "4 KiB.\n");
  return 0;
}
