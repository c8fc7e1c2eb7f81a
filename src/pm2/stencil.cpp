#include "pm2/stencil.hpp"

#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "marcel/sync.hpp"
#include "sim/rng.hpp"

namespace pm2::apps {
namespace {

/// Directed-edge tag: unique per (sender thread, receiver thread) pair.
nm::Tag edge_tag(unsigned src_tid, unsigned dst_tid) {
  return static_cast<nm::Tag>((src_tid << 10) | dst_tid);
}

}  // namespace

StencilResult run_stencil(const StencilConfig& scfg, ClusterConfig ccfg) {
  const unsigned rows = scfg.grid_rows;
  const unsigned cols = scfg.grid_cols;
  const unsigned total = rows * cols;
  PM2_ASSERT(total >= 2 && total < 1024);

  Cluster cluster(ccfg);
  const unsigned nodes = cluster.nodes();
  auto node_of_col = [&](unsigned c) { return c * nodes / cols; };

  // Per-thread buffers: one send buffer per outgoing edge (up to 4), one
  // receive buffer per incoming edge.
  struct Edges {
    std::vector<unsigned> neighbours;              // tids
    std::vector<std::vector<std::byte>> send_buf;  // parallel to neighbours
    std::vector<std::vector<std::byte>> recv_buf;
  };
  std::vector<Edges> edges(total);
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      const unsigned tid = r * cols + c;
      auto add = [&](int nr, int nc) {
        if (nr < 0 || nc < 0 || nr >= static_cast<int>(rows) ||
            nc >= static_cast<int>(cols)) {
          return;
        }
        edges[tid].neighbours.push_back(
            static_cast<unsigned>(nr) * cols + static_cast<unsigned>(nc));
        edges[tid].send_buf.emplace_back(scfg.frontier_bytes,
                                         std::byte{static_cast<unsigned char>(tid)});
        edges[tid].recv_buf.emplace_back(scfg.frontier_bytes);
      };
      add(static_cast<int>(r) - 1, static_cast<int>(c));
      add(static_cast<int>(r) + 1, static_cast<int>(c));
      add(static_cast<int>(r), static_cast<int>(c) - 1);
      add(static_cast<int>(r), static_cast<int>(c) + 1);
    }
  }

  // Threads on different nodes share the barriers below, which the fabric
  // does not carry: no node may run ahead of another's next event.
  cluster.engine().set_lookahead(0);
  marcel::Barrier start_barrier(total);
  marcel::Barrier end_barrier(total);
  SimTime t_start = 0, t_end = 0;

  for (unsigned tid = 0; tid < total; ++tid) {
    const unsigned c = tid % cols;
    const unsigned node = node_of_col(c);
    cluster.run_on(node, [&, tid, node] {
      nm::Core& comm = cluster.comm(node);
      Edges& e = edges[tid];
      const std::size_t degree = e.neighbours.size();
      std::vector<nm::Request*> sends(degree), recvs(degree);
      sim::Rng rng(scfg.jitter_seed * 7919 + tid);
      auto jittered = [&](SimDuration d) {
        const double f =
            1.0 + scfg.compute_jitter * (2.0 * rng.next_double() - 1.0);
        return static_cast<SimDuration>(static_cast<double>(d) * f);
      };

      start_barrier.arrive_and_wait();
      if (tid == 0) t_start = cluster.now();

      for (int iter = 0; iter < scfg.iterations; ++iter) {
        // Post the receives for the neighbours' frontiers up front.
        for (std::size_t i = 0; i < degree; ++i) {
          const unsigned nb = e.neighbours[i];
          recvs[i] = comm.irecv(node_of_col(nb % cols), edge_tag(nb, tid),
                                e.recv_buf[i]);
        }
        // Fig. 7: compute the frontier, send it asynchronously…
        marcel::this_thread::compute(jittered(scfg.frontier_compute));
        for (std::size_t i = 0; i < degree; ++i) {
          const unsigned nb = e.neighbours[i];
          sends[i] = comm.isend(node_of_col(nb % cols), edge_tag(tid, nb),
                                e.send_buf[i]);
        }
        // …compute the interior…
        marcel::this_thread::compute(jittered(scfg.interior_compute));
        // …and wait for everything.
        for (std::size_t i = 0; i < degree; ++i) comm.wait(sends[i]);
        for (std::size_t i = 0; i < degree; ++i) comm.wait(recvs[i]);
      }

      end_barrier.arrive_and_wait();
      if (tid == 0) t_end = cluster.now();
    }, "stencil-" + std::to_string(tid));
  }

  cluster.run();
  PM2_ASSERT(t_end > t_start);

  StencilResult result;
  result.total_us = to_us(t_end - t_start);
  result.iteration_us = result.total_us / scfg.iterations;
  for (unsigned n = 0; n < nodes; ++n) {
    if (cluster.server(n) != nullptr) {
      result.offloaded_submissions +=
          cluster.server(n)->stats().posted_offloaded;
    }
    result.messages += cluster.comm(n).stats().sends;
  }
  return result;
}

}  // namespace pm2::apps
