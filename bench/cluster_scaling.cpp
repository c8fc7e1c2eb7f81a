// Memory of a simulated cluster as it grows: what set-up plus one halo
// iteration costs per node at 128, 256, 512 and 1 024 nodes.
//
// Each size runs in its own forked process (4 cores per node, app-driven,
// RMA on): build the cluster, win_create one 2 KiB window per rank (an
// 8-byte allgather), then one halo iteration — fence, a 1 KiB put to each
// ring neighbour, fence, a 128-double allreduce.  It prints the glibc heap
// in use (mallinfo2, net of what the process held before the cluster)
// after construction, after win_create and after the iteration, plus the
// process's peak RSS, the fiber stacks mapped, the registry's metric count
// and the fabric's link entries.
//
// The gate: per-node heap at 1 024 nodes may exceed the 128-node figure by
// no more than what docs/simulation-model.md ("Memory per node") says
// grows with N, plus 10%: the per-rank arrays, kPerRankBytes for each of
// the 896 extra ranks, and the per-contact state, kPerContactBytes for
// each of the 3 extra rounds of a log-depth collective.  Anything else
// that grows with N per node fails the run.  Heap bytes depend on the
// host's glibc, so this is a CI check, not a BENCH_core.json metric.
//
// Exits 1 when the gate fails or a run does.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "nmad/rma/rma.hpp"
#include "pm2/cluster.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace pm2;

constexpr unsigned kSizes[] = {128, 256, 512, 1024};
constexpr std::size_t kHalo = 1024;
constexpr std::size_t kDoubles = 128;
// Per node, one entry per rank: rma::Window::sizes (8 B), the window's
// rank→slot index (4 B) and the Core's gate index (4 B).
constexpr double kPerRankBytes = 16;
// Per node, one per round of a ⌈log2 N⌉-round collective, each round being
// one more contact: the recursive-doubling allreduce's inbox (kDoubles
// doubles, kept by its pooled request), plus at most 768 B of a gate
// (64 B), fabric link slots (16 B each, at most half full), a pooled nm
// request (128 B) and the 48 B ops, edges and round stamps that the pooled
// allgather, barrier and allreduce schedules keep.
constexpr double kPerContactBytes = kDoubles * sizeof(double) + 768;
constexpr double kSlack = 1.10;

struct Sample {
  unsigned nodes = 0;
  double heap_built = 0;    // bytes, after construction
  double heap_created = 0;  // after win_create
  double heap_iter = 0;     // after one halo iteration
  double peak_rss_mb = 0;
  double cpu_s = 0;
  std::size_t stacks_mapped = 0;
  std::size_t metrics = 0;
  std::size_t links = 0;
};

double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

Sample measure(unsigned nodes) {
  Sample s;
  s.nodes = nodes;
  const double heap0 = heap_bytes();
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = 4;
  cfg.pioman = false;
  cfg.rma = true;
  Cluster cluster(cfg);
  std::vector<std::vector<std::byte>> wins(nodes,
                                           std::vector<std::byte>(2 * kHalo));
  s.heap_built = heap_bytes() - heap0;

  std::vector<nm::rma::WinId> ids(nodes);
  for (unsigned r = 0; r < nodes; ++r) {
    cluster.run_on(r, [&, r] { ids[r] = cluster.rma(r).win_create(wins[r]); });
  }
  cluster.run();
  s.heap_created = heap_bytes() - heap0;

  bool ok = true;
  for (unsigned r = 0; r < nodes; ++r) {
    cluster.run_on(r, [&, r] {
      nm::rma::Engine& rma = cluster.rma(r);
      std::vector<std::byte> halo(kHalo, std::byte{1});
      std::vector<double> sum(kDoubles, 1.0);
      rma.fence(ids[r]);
      ok = ok && pm2::ok(rma.put(ids[r], (r + 1) % nodes, 0, halo));
      ok = ok && pm2::ok(rma.put(ids[r], (r + nodes - 1) % nodes, kHalo,
                                   halo));
      rma.fence(ids[r]);
      nm::coll::Engine& coll = cluster.coll(r);
      coll.wait(coll.iallreduce_sum(sum));
      for (const double v : sum) ok = ok && v == static_cast<double>(nodes);
    });
  }
  cluster.run();
  s.heap_iter = heap_bytes() - heap0;
  if (!ok) {
    std::fprintf(stderr, "cluster_scaling: halo iteration failed at %u nodes\n",
                 nodes);
    std::exit(2);
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  s.stacks_mapped = sim::Fiber::stacks_mapped();
  s.metrics = cluster.metrics().size();
  s.links = cluster.fabric().link_entries();
  return s;
}

// Runs measure(nodes) in a child process, so every size starts from an
// empty heap, stack pool and peak RSS.
bool measure_in_child(unsigned nodes, Sample* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    const Sample s = measure(nodes);
    const bool wrote = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(wrote ? 0 : 3);
  }
  close(fds[1]);
  const bool got = read(fds[0], out, sizeof *out) == sizeof *out;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Rounds of a log-depth collective over n ranks: ⌈log2 n⌉.
unsigned rounds(unsigned n) {
  unsigned r = 0;
  for (unsigned d = 1; d < n; d <<= 1) ++r;
  return r;
}

void print_header() {
  std::printf("%6s %12s %12s %12s %10s %10s %8s %8s %8s %8s\n", "nodes",
              "heap_built", "heap_wincr", "heap_iter", "B/node", "peak_MB",
              "cpu_s", "stacks", "metrics", "links");
}

void print_row(const Sample& s) {
  std::printf("%6u %12.0f %12.0f %12.0f %10.0f %10.1f %8.3f %8zu %8zu %8zu\n",
              s.nodes, s.heap_built, s.heap_created, s.heap_iter,
              s.heap_iter / s.nodes, s.peak_rss_mb, s.cpu_s, s.stacks_mapped,
              s.metrics, s.links);
}

}  // namespace

int main() {
  print_header();
  std::vector<Sample> samples;
  for (const unsigned nodes : kSizes) {
    Sample s;
    if (!measure_in_child(nodes, &s)) {
      std::fprintf(stderr, "cluster_scaling: %u-node run failed\n", nodes);
      return 1;
    }
    print_row(s);
    samples.push_back(s);
  }
  const Sample& lo = samples.front();
  const Sample& hi = samples.back();
  const unsigned ranks = hi.nodes - lo.nodes;
  const unsigned contacts = rounds(hi.nodes) - rounds(lo.nodes);
  const double growth = hi.heap_iter / hi.nodes - lo.heap_iter / lo.nodes;
  const double allowed =
      kSlack * (kPerRankBytes * ranks + kPerContactBytes * contacts);
  const bool pass = growth <= allowed;
  std::printf(
      "per-node heap %u -> %u nodes: +%.0f B (allowed %.0f B = %.0f B per "
      "rank x %u ranks + %.0f B per contact x %u contacts + 10%%): %s\n",
      lo.nodes, hi.nodes, growth, allowed, kPerRankBytes, ranks,
      kPerContactBytes, contacts, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
