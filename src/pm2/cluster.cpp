#include "pm2/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "marcel/lock_profile.hpp"
#include "nmad/reliable.hpp"
#include "pm2/attribution.hpp"
#include "sim/fiber.hpp"
#include "sim/schedule_fuzz.hpp"
#include "sim/trace.hpp"

namespace pm2 {

Cluster::Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  // Contention profiling is on for the Cluster's whole lifetime — it is
  // cheap enough (one relaxed load per lock event while idle) to keep in
  // every test.  Reference-counted, so overlapping clusters share it.
  lock_profile::enable();
  cfg_.marcel.nodes = cfg_.nodes;
  cfg_.marcel.cpus_per_node = cfg_.cpus_per_node;
  cfg_.nm.mode =
      cfg_.pioman ? nm::ProgressMode::kPioman : nm::ProgressMode::kAppDriven;

  runtime_ = std::make_unique<marcel::Runtime>(engine_, cfg_.marcel);
  // Attach the schedule fuzzer before any server/core is built so every
  // dispatch, tick and wakeup of this run is perturbed consistently.
  std::uint64_t fuzz_seed = cfg_.fuzz_seed;
  if (const char* env = std::getenv("PM2_FUZZ_SEED"); env != nullptr) {
    fuzz_seed = std::strtoull(env, nullptr, 0);
  }
  if (fuzz_seed != 0) {
    fuzzer_ = std::make_unique<sim::ScheduleFuzzer>(fuzz_seed);
    runtime_->attach_fuzzer(fuzzer_.get());
  }
  // Per-core endpoints: one NIC endpoint (rail) per virtual core, so each
  // submitting core injects on its own link (nm::Core::preferred_rail).
  // Heterogeneous rail_costs keep their explicit rail count.
  if (cfg_.nm.per_core_endpoints && cfg_.rail_costs.empty()) {
    cfg_.rails = std::max(cfg_.rails, cfg_.cpus_per_node);
  }
  if (!cfg_.rail_costs.empty()) {
    cfg_.rails = static_cast<unsigned>(cfg_.rail_costs.size());
    fabric_ =
        std::make_unique<net::Fabric>(engine_, cfg_.nodes, cfg_.rail_costs);
  } else {
    fabric_ = std::make_unique<net::Fabric>(engine_, cfg_.nodes, cfg_.rails,
                                            cfg_.cost);
  }
  if (cfg_.pioman) {
    servers_.reserve(cfg_.nodes);
    for (unsigned i = 0; i < cfg_.nodes; ++i) {
      servers_.push_back(
          std::make_unique<piom::Server>(runtime_->node(i), cfg_.piom));
    }
  }
  cores_.reserve(cfg_.nodes);
  for (unsigned i = 0; i < cfg_.nodes; ++i) {
    cores_.push_back(std::make_unique<nm::Core>(
        runtime_->node(i), *fabric_,
        cfg_.pioman ? servers_[i].get() : nullptr, cfg_.nm));
  }
  colls_.reserve(cfg_.nodes);
  for (unsigned i = 0; i < cfg_.nodes; ++i) {
    colls_.push_back(
        std::make_shared<nm::coll::Engine>(*cores_[i], cfg_.nodes));
  }
  if (cfg_.rpc) {
    rpcs_.reserve(cfg_.nodes);
    for (unsigned i = 0; i < cfg_.nodes; ++i) {
      rpcs_.push_back(std::make_unique<rpc::Engine>(*cores_[i]));
    }
  }
  if (cfg_.rma) {
    rmas_.reserve(cfg_.nodes);
    for (unsigned i = 0; i < cfg_.nodes; ++i) {
      rmas_.push_back(std::make_unique<nm::rma::Engine>(*cores_[i],
                                                        *colls_[i]));
    }
  }
  if (std::getenv("PM2_TRACING") != nullptr) cfg_.tracing = true;
  if (cfg_.tracing) {
    tracers_.reserve(cfg_.nodes);
    for (unsigned i = 0; i < cfg_.nodes; ++i) {
      tracers_.push_back(std::make_unique<tracing::Recorder>(i, trace_ids_));
      colls_[i]->set_tracing(tracers_[i].get());
      if (i < rpcs_.size()) rpcs_[i]->set_tracing(tracers_[i].get());
      if (i < rmas_.size()) rmas_[i]->set_tracing(tracers_[i].get());
    }
  }
  if (!cfg_.faults.empty()) {
    // A single top-level seed keeps lossy runs reproducible; the env
    // override lets CLI benches replay a schedule without recompiling.
    std::uint64_t seed = cfg_.nm.fault_seed;
    if (const char* env = std::getenv("PM2_FAULT_SEED"); env != nullptr) {
      seed = std::strtoull(env, nullptr, 0);
    }
    fabric_->install_faults(cfg_.faults, seed);
  }
  engine_.set_lookahead(fabric_->lookahead());
  if (const char* path = std::getenv("PM2_METRICS"); path != nullptr) {
    metrics_path_ = path;
  }
  if (const char* path = std::getenv("PM2_TRACE"); path != nullptr) {
    env_tracer_ = std::make_unique<sim::Tracer>();
    trace_path_ = path;
    runtime_->set_tracer(env_tracer_.get());
    if (fabric_->faults() != nullptr) {
      fabric_->faults()->set_tracer(env_tracer_.get());
    }
  }
  // A traced or metrics-exporting run always records flights: the trace
  // flow arrows and the attribution section both need the stamps.
  if (cfg_.flight || !metrics_path_.empty() || !trace_path_.empty()) {
    PM2_ASSERT(cfg_.flight_capacity > 0);
    flights_.reserve(cfg_.nodes);
    for (unsigned i = 0; i < cfg_.nodes; ++i) {
      flights_.push_back(
          std::make_unique<nm::FlightRecorder>(i, cfg_.flight_capacity));
      cores_[i]->set_flight_recorder(flights_[i].get());
    }
  }
  bind_all_metrics();
}

Cluster::~Cluster() {
  if (fuzzer_ != nullptr && sim::active_fuzzer() == fuzzer_.get()) {
    sim::set_active_fuzzer(nullptr);
  }
  if (!metrics_path_.empty()) {
    if (write_metrics_json(metrics_path_)) {
      PM2_INFO("wrote metrics to %s", metrics_path_.c_str());
    } else {
      PM2_WARN("failed to write metrics to %s", metrics_path_.c_str());
    }
  }
  if (env_tracer_ != nullptr) {
    sim::export_registry(*env_tracer_, metrics_, engine_.now());
    // Tail exemplars ride along in the same timeline file, as async
    // spans on "nodeN/trace" tracks.
    for (const tracing::TraceView* tv : pick_exemplars()) {
      tracing::export_trace(*env_tracer_, *tv);
    }
    if (env_tracer_->write_json(trace_path_)) {
      PM2_INFO("wrote timeline trace to %s (%zu events)",
               trace_path_.c_str(), env_tracer_->event_count());
    } else {
      PM2_WARN("failed to write trace to %s", trace_path_.c_str());
    }
  }
  // Detach the tracer so nothing in the teardown below can reach it after
  // env_tracer_ is freed.
  runtime_->set_tracer(nullptr);
  if (fabric_->faults() != nullptr) fabric_->faults()->set_tracer(nullptr);
  lock_profile::disable();
  // The engine dies with the cluster: nothing steps it again, so the LWPs
  // need no join, which would run events amid the teardown below.
  for (auto& server : servers_) server->detach_lwp();
}

void Cluster::flush_observability() {
  for (unsigned n = 0; n < cfg_.nodes; ++n) {
    marcel::Node& node = runtime_->node(n);
    for (unsigned c = 0; c < node.cpu_count(); ++c) {
      node.cpu(c).flush_core_state();
    }
  }
  lock_profile::export_to(metrics_);
  if (tracers_.empty()) return;
  // Fold each newly completed RPC trace into the per-service aggregate
  // histograms: end-to-end latency plus its critical path summed per
  // segment.  histogrammed_traces_ keeps repeated flushes idempotent.
  const tracing::Assembly& asmb = trace_assembly();
  char name[96];
  for (const tracing::TraceView& tv : asmb.traces) {
    if (!tv.complete || std::string_view(tv.kind) != "rpc") continue;
    const auto it = std::lower_bound(histogrammed_traces_.begin(),
                                     histogrammed_traces_.end(), tv.id);
    if (it != histogrammed_traces_.end() && *it == tv.id) continue;
    histogrammed_traces_.insert(it, tv.id);
    std::snprintf(name, sizeof name, "node%u/rpc/trace/svc%u/e2e_ns",
                  tv.root_node, tv.service);
    metrics_.histogram(name).add(static_cast<std::uint64_t>(tv.e2e_ns()));
    std::map<std::string_view, std::uint64_t> per_seg;
    for (const tracing::Segment& s : tv.critical_path) {
      per_seg[s.name] += static_cast<std::uint64_t>(s.ns());
    }
    for (const auto& [seg, ns] : per_seg) {
      std::snprintf(name, sizeof name, "node%u/rpc/trace/svc%u/%.*s_ns",
                    tv.root_node, tv.service, static_cast<int>(seg.size()),
                    seg.data());
      metrics_.histogram(name).add(ns);
    }
  }
}

const tracing::Assembly& Cluster::trace_assembly() {
  std::uint64_t total = 0;
  for (const auto& t : tracers_) total += t->events().size();
  if (total != assembled_events_) {
    std::vector<const tracing::Recorder*> recs;
    recs.reserve(tracers_.size());
    for (const auto& t : tracers_) recs.push_back(t.get());
    trace_assembly_ = tracing::assemble(recs);
    assembled_events_ = total;
  }
  return trace_assembly_;
}

std::vector<const tracing::TraceView*> Cluster::pick_exemplars() {
  std::vector<const tracing::TraceView*> out;
  if (tracers_.empty() || cfg_.trace_exemplars == 0) return out;
  std::map<std::uint32_t, std::vector<const tracing::TraceView*>> by_service;
  for (const tracing::TraceView& tv : trace_assembly().traces) {
    if (!tv.complete || std::string_view(tv.kind) != "rpc") continue;
    by_service[tv.service].push_back(&tv);
  }
  for (auto& [svc, traces] : by_service) {
    std::sort(traces.begin(), traces.end(),
              [](const tracing::TraceView* a, const tracing::TraceView* b) {
                if (a->e2e_ns() != b->e2e_ns()) {
                  return a->e2e_ns() > b->e2e_ns();
                }
                return a->id < b->id;  // deterministic tie-break
              });
    const std::size_t k =
        std::min<std::size_t>(cfg_.trace_exemplars, traces.size());
    out.insert(out.end(), traces.begin(),
               traces.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return out;
}

bool Cluster::write_trace_exemplars(const std::string& path) {
  if (tracers_.empty()) return false;
  sim::Tracer tracer;
  for (const tracing::TraceView* tv : pick_exemplars()) {
    tracing::export_trace(tracer, *tv);
  }
  return tracer.write_json(path);
}

void Cluster::bind_all_metrics() {
  char prefix[64];
  for (unsigned n = 0; n < cfg_.nodes; ++n) {
    for (unsigned c = 0; c < runtime_->node(n).cpu_count(); ++c) {
      std::snprintf(prefix, sizeof prefix, "node%u/cpu%u", n, c);
      runtime_->node(n).cpu(c).bind_metrics(metrics_, prefix);
    }
    std::snprintf(prefix, sizeof prefix, "node%u/nm", n);
    cores_[n]->bind_metrics(metrics_, prefix);
    std::snprintf(prefix, sizeof prefix, "node%u/coll", n);
    colls_[n]->bind_metrics(metrics_, prefix);
    if (n < rpcs_.size()) {
      std::snprintf(prefix, sizeof prefix, "node%u/rpc", n);
      rpcs_[n]->bind_metrics(metrics_, prefix);
    }
    if (n < rmas_.size()) {
      std::snprintf(prefix, sizeof prefix, "node%u/rma", n);
      rmas_[n]->bind_metrics(metrics_, prefix);
    }
    if (const nm::Reliability* rel = cores_[n]->reliability()) {
      std::snprintf(prefix, sizeof prefix, "node%u/reliable", n);
      rel->bind_metrics(metrics_, prefix);
    }
    if (n < servers_.size() && servers_[n] != nullptr) {
      std::snprintf(prefix, sizeof prefix, "node%u/piom", n);
      servers_[n]->bind_metrics(metrics_, prefix);
    }
    for (unsigned r = 0; r < fabric_->rails(); ++r) {
      std::snprintf(prefix, sizeof prefix, "node%u/nic%u", n, r);
      fabric_->nic(n, r).bind_metrics(metrics_, prefix);
    }
    if (n < flights_.size() && flights_[n] != nullptr) {
      nm::FlightRecorder* rec = flights_[n].get();
      std::snprintf(prefix, sizeof prefix, "node%u/flight/dropped", n);
      metrics_.bind_gauge(prefix,
                          [rec] { return static_cast<double>(rec->dropped()); });
    }
    if (n < tracers_.size() && tracers_[n] != nullptr) {
      std::snprintf(prefix, sizeof prefix, "node%u/rpc/trace", n);
      tracers_[n]->bind_metrics(metrics_, prefix);
    }
  }
  if (fabric_->faults() != nullptr) {
    fabric_->faults()->bind_metrics(metrics_, "fabric/faults");
  }
  // Events dispatched from the heap and lock-spin granules run from the
  // engine's side list: together, the stepped event count.
  metrics_.bind_gauge("sim/events/dispatched", [this] {
    return static_cast<double>(engine_.events_processed());
  });
  metrics_.bind_gauge("sim/events/spin_granules", [this] {
    return static_cast<double>(engine_.side_processed());
  });
  // Host-thread fiber stacks (live + recycled), read on the thread that
  // exports the registry — the one running this cluster.
  metrics_.bind_gauge("sim/fiber_stacks/mapped", [] {
    return static_cast<double>(sim::Fiber::stacks_mapped());
  });
  metrics_.bind_gauge("sim/fiber_stacks/pooled", [] {
    return static_cast<double>(sim::Fiber::stacks_pooled());
  });
  // Binding appends without a lookup; building the name index here makes
  // a duplicate or clashing binding above abort at construction, not at
  // the first export.
  (void)metrics_.size();
}

bool Cluster::write_metrics_json(const std::string& path) {
  flush_observability();
  std::vector<const nm::FlightRecorder*> recorders;
  recorders.reserve(flights_.size());
  for (const auto& f : flights_) recorders.push_back(f.get());
  const Attribution attr = attribute_flights(recorders);
  export_attribution(metrics_, attr);

  std::string doc = "{\"schema\":\"pm2-metrics-v1\",";
  char head[64];
  std::snprintf(head, sizeof head, "\"sim_time_us\":%.3f,",
                to_us(engine_.now()));
  doc += head;
  doc += "\"metrics\":";
  doc += metrics_.to_json();
  doc += ",\"attribution\":";
  doc += attribution_to_json(attr);
  if (!tracers_.empty()) {
    const tracing::Assembly& asmb = trace_assembly();
    std::uint64_t complete = 0;
    for (const tracing::TraceView& tv : asmb.traces) {
      if (tv.complete) ++complete;
    }
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  ",\"tracing\":{\"events\":%llu,\"spans\":%llu,"
                  "\"open_spans\":%llu,\"traces\":%zu,"
                  "\"traces_complete\":%llu,\"segments\":[",
                  static_cast<unsigned long long>(asmb.events),
                  static_cast<unsigned long long>(asmb.spans),
                  static_cast<unsigned long long>(asmb.open_spans),
                  asmb.traces.size(),
                  static_cast<unsigned long long>(complete));
    doc += buf;
    bool first = true;
    for (const char* seg : tracing::segment_taxonomy()) {
      if (!first) doc += ",";
      first = false;
      doc += "\"";
      doc += seg;
      doc += "\"";
    }
    doc += "],\"exemplars\":[";
    first = true;
    for (const tracing::TraceView* tv : pick_exemplars()) {
      if (!first) doc += ",";
      first = false;
      doc += tracing::trace_to_json(*tv);
    }
    doc += "]}";
  }
  doc += "}\n";
  PM2_ASSERT_MSG(json_valid(doc), "metrics.json export must be valid JSON");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = written == doc.size() && std::fclose(f) == 0;
  if (written != doc.size()) std::fclose(f);
  return ok;
}

void Cluster::run() {
  engine_.run();
  if (!engine_.empty()) return;  // stopped early
  bool stuck = false;
  for (unsigned n = 0; n < runtime_->node_count(); ++n) {
    marcel::Node& node = runtime_->node(n);
    for (unsigned c = 0; c < node.cpu_count(); ++c) {
      marcel::Cpu& cpu = node.cpu(c);
      if (!cpu.spin_parked()) continue;
      const marcel::Thread* t = cpu.current_thread();
      std::fprintf(stderr,
                   "pm2: event queue drained with an app-driven wait still "
                   "spinning: node %u cpu %u thread '%s', parked since "
                   "t=%llu ns; nothing left can complete it\n",
                   n, c, t != nullptr ? t->name().c_str() : "?",
                   static_cast<unsigned long long>(cpu.spin_since()));
      stuck = true;
    }
  }
  if (stuck) std::abort();
}

marcel::Thread& Cluster::run_on(unsigned i, std::function<void()> fn,
                                std::string name, int cpu_hint) {
  PM2_ASSERT(i < cfg_.nodes);
  return runtime_->node(i).spawn(std::move(fn), marcel::Priority::kNormal,
                                 std::move(name), cpu_hint);
}

}  // namespace pm2
