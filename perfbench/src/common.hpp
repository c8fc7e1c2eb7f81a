// Shared pieces of the two-clock benchmark: the per-run result record,
// the in-memory call-span log of traced runs, host-clock helpers and the
// registry reads every workload reports.
//
// Two clocks, never mixed:
//   * host time  - CPU time of the one host thread (host_s()), read only
//                  from host context
//                  (around construction, Cluster::run() and trace assembly;
//                  a call made inside a fiber can suspend, so host time
//                  around it would include other fibers' events), and
//                  reported calibrated: scaled by how fast the host ran the
//                  fixed probe_s() work next to it (see calibrated());
//   * virtual time - Cluster::now(), read inside fibers around each call
//                  into a layer.
#pragma once

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pm2/cluster.hpp"

namespace perfbench {

using pm2::SimDuration;
using pm2::SimTime;

struct Options {
  std::uint64_t seed = 1;
  bool traced = false;  // ClusterConfig::tracing + flight, call spans
};

/// One call into a layer, timed on the virtual clock from inside a fiber.
/// Spans of one op share `op`; the op's own span is named "op".
struct Span {
  const char* name = "";
  unsigned node = 0;
  std::uint64_t op = 0;
  SimTime begin = 0;
  SimTime end = 0;
};

/// Call spans of a traced run, kept in memory and written out at exit.
/// Disabled (every add() is one untaken branch) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  void add(const char* name, unsigned node, std::uint64_t op, SimTime begin,
           SimTime end) {
    if (on_) spans_.push_back({name, node, op, begin, end});
  }

  /// Mean span duration in virtual microseconds over spans called `name`
  /// (0 when there are none).
  [[nodiscard]] double mean_us(const char* name) const;

  /// Chrome-trace JSON (complete "X" events, one track per node).
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// What one workload run reports.  `layer` holds the per-layer metrics
/// every run reproduces exactly (registry counts, virtual-time figures);
/// `traced_only` those only a traced run measures (call spans, trace assembly);
/// `laws` lists broken conservation laws.
struct Result {
  double setup_cpu_s = 0;  // host CPU seconds, as measured
  double run_cpu_s = 0;
  double setup_s = 0;  // the same, calibrated
  double run_s = 0;
  std::vector<double> probes;  // probe_s() times, in the order taken
  std::uint64_t events = 0;  // DES events dispatched by the measured run()
  std::uint64_t msgs = 0;    // nm sends during the measured run()
  // Virtual time from the start of the measured phase to the last op's
  // completion; the clock after run() would add trailing timer ticks.
  SimDuration vt_span = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<SimDuration> lat;  // per completed, verified op
  std::map<std::string, double> layer;
  std::map<std::string, double> traced_only;
  std::vector<std::string> laws;
};

/// Latency slot of an op that never completed or failed its check.
inline constexpr SimDuration kFailed = ~SimDuration{0};

/// Host time: CPU seconds consumed by the calling host thread, which runs
/// the whole simulation.  Unlike a wall clock it does not count time the
/// OS gave to other processes, so repeated runs on a shared machine agree
/// far better.
[[nodiscard]] inline double host_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-speed probe: host seconds of one fixed unit of work shaped like
/// the simulator's inner loop (probe.cpp), about 2 ms.  On a shared host
/// the same code can run over half again as slow for seconds to minutes
/// at a time, and a probe taken next to a piece of work, on the same
/// thread, slows down with it where a probe on another core does not.
[[nodiscard]] double probe_s();

/// What probe_s() takes on a 4-vCPU Intel Xeon VM in a quiet phase.
inline constexpr double kProbeRefS = 0.0018;

/// Calibrated host seconds: `host_seconds` of work scaled to the speed at
/// which the reference host runs the probe, given what the probe took
/// around that work.  A change to the simulator moves the work and not the
/// probe; a slow phase of the host moves both.
[[nodiscard]] inline double calibrated(double host_seconds, double probe) {
  return host_seconds * kProbeRefS / probe;
}

[[nodiscard]] inline double us(SimDuration d) {
  return static_cast<double>(d) / 1000.0;
}

/// Traced runs turn on causal tracing and flight recording, both
/// schedule-neutral; the flight ring is kept small because only its
/// recording cost matters here, not its contents.
inline void set_traced(pm2::ClusterConfig& cfg, bool traced) {
  cfg.tracing = traced;
  cfg.flight = traced;
  cfg.flight_capacity = 1024;
}

/// Σ nodeN/<suffix> over the registry (e.g. "/nm/sends").
[[nodiscard]] std::uint64_t node_sum(const pm2::Cluster& c,
                                     const char* suffix);

/// Max of nodeN/<suffix> over the nodes.
[[nodiscard]] double node_max(const pm2::Cluster& c, const char* suffix);

/// p-th percentile of the union of nodeN/<suffix> histograms (0 if none).
[[nodiscard]] double merged_percentile(const pm2::Cluster& c,
                                       const char* suffix, double p);

/// Run `cluster` to quiescence, recording host seconds (raw and
/// calibrated), DES events and nm sends of just this run() into `r`.  The
/// run goes in slices of about kSliceS host seconds with a probe between
/// each two; each slice is calibrated by the mean of the probes around it.
void timed_run(pm2::Cluster& cluster, Result& r);

/// Check the registry's cross-layer conservation laws (the ones
/// tools/check_metrics.py asserts) and append any broken one to r.laws.
void check_laws(const pm2::Cluster& cluster, Result& r);

/// Read every per-layer counter the modules publish into r.layer: sim,
/// marcel, core (piom), netsim, nmad, coll, rma, rpc.  Flushes the
/// cluster's observability first; traced runs also time trace assembly.
/// Zeroes the metrics the workloads measure themselves, so every workload
/// reports every name.
void read_layers(pm2::Cluster& cluster, Result& r);

// The workloads.  Each generates its whole input from opt.seed.
Result run_p2p_mix(const Options& opt, SpanLog& spans);
Result run_rpc_tail(const Options& opt, SpanLog& spans);
Result run_halo_solver(const Options& opt, SpanLog& spans);

}  // namespace perfbench
