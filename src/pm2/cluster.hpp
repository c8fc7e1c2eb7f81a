// The top-level facade: a simulated cluster running the full PM2 stack
// (Marcel scheduler + PIOMan + NewMadeleine over the simulated fabric).
// This is the entry point examples and benchmarks use.
//
//   pm2::ClusterConfig cfg;             // 2 nodes × 8 cores, PIOMan on
//   pm2::Cluster cluster(cfg);
//   cluster.run_on(0, [&] { ... nm API via cluster.comm(0) ... });
//   cluster.run_on(1, [&] { ... });
//   cluster.run();                      // run the simulation to quiescence
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/simtime.hpp"
#include "core/server.hpp"
#include "nmad/flight.hpp"
#include "marcel/runtime.hpp"
#include "netsim/fabric.hpp"
#include "nmad/coll/coll.hpp"
#include "nmad/core.hpp"
#include "nmad/rma/rma.hpp"
#include "pm2/completion.hpp"
#include "pm2/rpc.hpp"
#include "pm2/tracing/assembly.hpp"
#include "pm2/tracing/tracing.hpp"
#include "sim/engine.hpp"

namespace pm2 {

struct ClusterConfig {
  unsigned nodes = 2;
  unsigned cpus_per_node = 8;
  unsigned rails = 1;

  /// Master switch: true = the paper's multithreaded engine, false = the
  /// original app-driven NewMadeleine (the evaluation baseline).
  bool pioman = true;

  marcel::Config marcel;   // nodes/cpus_per_node are overridden from above
  net::CostModel cost;
  nm::Config nm;           // mode is overridden from `pioman`
  piom::Config piom;

  /// Heterogeneous rails: when non-empty, one cost model per rail
  /// (overrides `rails` and `cost`).  E.g. {myri10g(), infiniband_ddr()}.
  std::vector<net::CostModel> rail_costs;

  /// Fault-injection plan for the fabric (see netsim/faults.hpp).  An empty
  /// plan installs nothing — the fabric keeps its zero-overhead fast path.
  /// The injector is seeded from nm.fault_seed (PM2_FAULT_SEED overrides).
  net::FaultPlan faults;

  /// Per-node RPC + remotable-completion engines (see pm2/rpc.hpp),
  /// reachable via Cluster::rpc(i) and bound as "nodeN/rpc/*" metrics.
  /// Off by default: the engines register a PIOMan poll source per node,
  /// and workloads that issue no RPCs should not pay for it.
  bool rpc = false;

  /// Per-node one-sided RMA engines (see nmad/rma/rma.hpp), reachable via
  /// Cluster::rma(i) and bound as "nodeN/rma/*" metrics.  Off by default;
  /// a dormant sink costs nothing, but windows and epochs are part of the
  /// workload's contract, so the subsystem is opt-in like rpc.
  bool rma = false;

  /// Record per-request lifecycle stamps into per-node FlightRecorders for
  /// the attribution pass (see nmad/flight.hpp).  Also enabled implicitly
  /// when PM2_METRICS or PM2_TRACE is set in the environment.
  bool flight = false;
  std::size_t flight_capacity = 8192;

  /// Causal tracing (src/pm2/tracing): per-node recorders wired into the
  /// RPC and collective engines, assembled into cross-node trace trees
  /// with critical-path attribution in flush_observability().  The
  /// PM2_TRACING environment variable forces it on.  Tracing records
  /// charge no virtual time, so enabling this cannot change the schedule.
  bool tracing = false;
  /// Tail-exemplar policy: the slowest `trace_exemplars` complete RPC
  /// traces per service are retained in full (JSON in metrics.json's
  /// "tracing" section, async spans in the Chrome trace).
  unsigned trace_exemplars = 4;

  /// Schedule-exploration fuzzing (see sim/schedule_fuzz.hpp): 0 = off,
  /// any other value seeds a deterministic schedule perturbation.  The
  /// PM2_FUZZ_SEED environment variable overrides this, so any failing
  /// interleaving can be replayed on an unmodified binary.
  std::uint64_t fuzz_seed = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] marcel::Runtime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] unsigned nodes() const noexcept { return cfg_.nodes; }
  [[nodiscard]] marcel::Node& node(unsigned i) noexcept {
    return runtime_->node(i);
  }
  /// The NewMadeleine instance of node `i`.
  [[nodiscard]] nm::Core& comm(unsigned i) noexcept { return *cores_[i]; }
  /// The PIOMan server of node `i` (nullptr in baseline mode).
  [[nodiscard]] piom::Server* server(unsigned i) noexcept {
    return servers_.empty() ? nullptr : servers_[i].get();
  }
  /// Node `i`'s nonblocking collective engine (world = all nodes).  Its
  /// counters are bound under "nodeN/coll" in metrics().
  [[nodiscard]] nm::coll::Engine& coll(unsigned i) noexcept {
    return *colls_[i];
  }
  /// Shared ownership handle for mpi::Comm construction.
  [[nodiscard]] std::shared_ptr<nm::coll::Engine> coll_ptr(
      unsigned i) noexcept {
    return colls_[i];
  }
  /// Node `i`'s RPC engine (requires ClusterConfig::rpc).  Its counters
  /// are bound under "nodeN/rpc" in metrics().
  [[nodiscard]] rpc::Engine& rpc(unsigned i) noexcept {
    PM2_ASSERT_MSG(i < rpcs_.size(), "ClusterConfig::rpc is off");
    return *rpcs_[i];
  }
  /// Node `i`'s one-sided RMA engine (requires ClusterConfig::rma).  Its
  /// counters are bound under "nodeN/rma" in metrics().
  [[nodiscard]] nm::rma::Engine& rma(unsigned i) noexcept {
    PM2_ASSERT_MSG(i < rmas_.size(), "ClusterConfig::rma is off");
    return *rmas_[i];
  }

  /// Spawn an application thread on node `i`.
  marcel::Thread& run_on(unsigned i, std::function<void()> fn,
                         std::string name = "app", int cpu_hint = -1);

  /// Run the simulation until quiescence.  Aborts with a diagnosis on
  /// stderr if the queue drains while an app-driven wait is still parked
  /// in Cpu::spin_wait(): nothing is left that could ever complete it.
  void run();
  [[nodiscard]] SimTime now() const noexcept { return engine_.now(); }

  /// Attach a timeline tracer (see sim/trace.hpp).  Alternatively set the
  /// PM2_TRACE environment variable to a path: the Cluster then creates a
  /// tracer and writes the Chrome-trace JSON on destruction.
  void attach_tracer(sim::Tracer* tracer) {
    runtime_->set_tracer(tracer);
    if (fabric_->faults() != nullptr) fabric_->faults()->set_tracer(tracer);
  }

  /// The unified metrics registry.  Every subsystem counter is bound here
  /// at construction; pm2::format_report and metrics.json read only this.
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// The active schedule fuzzer (nullptr unless fuzz_seed / PM2_FUZZ_SEED
  /// is non-zero).  Its decision trace identifies a failing interleaving.
  [[nodiscard]] sim::ScheduleFuzzer* fuzzer() noexcept {
    return fuzzer_.get();
  }

  /// Node `i`'s flight recorder (nullptr unless flight recording is on).
  [[nodiscard]] nm::FlightRecorder* flight(unsigned i) noexcept {
    return i < flights_.size() ? flights_[i].get() : nullptr;
  }

  /// Node `i`'s causal-trace recorder (nullptr unless tracing is on).
  [[nodiscard]] tracing::Recorder* trace_recorder(unsigned i) noexcept {
    return i < tracers_.size() ? tracers_[i].get() : nullptr;
  }

  /// Assemble (and cache) every recorded event into cross-node traces.
  /// Re-assembles only when new events arrived since the last call.
  [[nodiscard]] const tracing::Assembly& trace_assembly();

  /// Write the tail exemplars (slowest complete RPC traces per service)
  /// as a Chrome/Perfetto-loadable JSON file.  False on I/O failure or
  /// when tracing is off.
  bool write_trace_exemplars(const std::string& path);

  /// Fold open observability intervals into the registry: every core's
  /// in-progress state interval (so per-core state counters sum to now())
  /// and the lock profiler's per-site statistics.  Idempotent; called by
  /// write_metrics_json and format_report before they read the registry.
  void flush_observability();

  /// Write metrics.json (registry + attribution) to `path`.  Returns false
  /// on I/O failure.  Also runs automatically at destruction when the
  /// PM2_METRICS environment variable names a path.
  bool write_metrics_json(const std::string& path);

 private:
  void bind_all_metrics();
  /// The tail exemplars under the config policy, slowest first.
  [[nodiscard]] std::vector<const tracing::TraceView*> pick_exemplars();

  ClusterConfig cfg_;
  sim::Engine engine_;
  std::unique_ptr<sim::ScheduleFuzzer> fuzzer_;
  std::unique_ptr<marcel::Runtime> runtime_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<piom::Server>> servers_;
  std::vector<std::unique_ptr<nm::Core>> cores_;
  // Declared before the engines below, which hold raw Recorder pointers:
  // reverse destruction order keeps the recorders alive until the engines
  // (and any in-flight completions they still trace) are gone.
  tracing::IdSource trace_ids_;
  std::vector<std::unique_ptr<tracing::Recorder>> tracers_;
  // Declared after cores_ so the engines (whose destructors unregister
  // their poll source) die before the cores and servers they reference.
  std::vector<std::shared_ptr<nm::coll::Engine>> colls_;
  std::vector<std::unique_ptr<rpc::Engine>> rpcs_;
  std::vector<std::unique_ptr<nm::rma::Engine>> rmas_;
  std::vector<std::unique_ptr<nm::FlightRecorder>> flights_;
  MetricsRegistry metrics_;
  std::unique_ptr<sim::Tracer> env_tracer_;
  std::string trace_path_;
  std::string metrics_path_;
  // trace_assembly() cache, invalidated by event-count growth; the
  // exported set keeps flush_observability()'s histogram export
  // idempotent across repeated flushes.
  tracing::Assembly trace_assembly_;
  std::uint64_t assembled_events_ = 0;
  std::vector<std::uint64_t> histogrammed_traces_;  // sorted trace ids
};

}  // namespace pm2
