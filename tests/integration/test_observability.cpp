// Flight recorder + attribution + metrics.json, end to end: stage-ordering
// invariants (also under fault-injected retransmits), the offload
// critical-path claim, and the exported artefacts' validity.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "nmad/reliable.hpp"
#include "pm2/attribution.hpp"
#include "pm2/cluster.hpp"
#include "pm2/report.hpp"
#include "sim/trace.hpp"

namespace pm2 {
namespace {

/// Symmetric ping-pong with overlap compute, the Fig. 4 kernel shape.
void run_pingpong(Cluster& cluster, std::size_t size, int iters,
                  SimDuration comp = 20 * kUs) {
  static std::vector<std::byte> data0, data1, rx0, rx1;
  data0.assign(size, std::byte{0xa5});
  data1.assign(size, std::byte{0x5a});
  rx0.assign(size, std::byte{0});
  rx1.assign(size, std::byte{0});
  cluster.run_on(0, [&cluster, iters, comp] {
    for (int i = 0; i < iters; ++i) {
      nm::Request* s = cluster.comm(0).isend(1, 1, data0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(s);
      nm::Request* r = cluster.comm(0).irecv(1, 2, rx0);
      marcel::this_thread::compute(comp);
      cluster.comm(0).wait(r);
    }
  });
  cluster.run_on(1, [&cluster, iters, comp] {
    for (int i = 0; i < iters; ++i) {
      nm::Request* r = cluster.comm(1).irecv(0, 1, rx1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(r);
      nm::Request* s = cluster.comm(1).isend(0, 2, data1);
      marcel::this_thread::compute(comp);
      cluster.comm(1).wait(s);
    }
  });
  cluster.run();
}

void expect_all_ordered(Cluster& cluster) {
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const nm::FlightRecorder* rec = cluster.flight(n);
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->size(), 0u);
    for (std::size_t i = 0; i < rec->size(); ++i) {
      const nm::FlightRecord& f = rec->record(i);
      EXPECT_NE(f.id, 0u);
      EXPECT_EQ(f.node, n);
      EXPECT_NE(f.at(nm::Stage::kPosted), 0u) << "record " << i;
      EXPECT_NE(f.at(nm::Stage::kCompleted), 0u) << "record " << i;
      EXPECT_TRUE(f.ordered())
          << "node " << n << " record " << i << " violates stage ordering";
    }
  }
}

TEST(Observability, FlightRecordsObeyStageOrdering) {
  ClusterConfig cfg;
  cfg.flight = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 6);        // eager path
  EXPECT_EQ(cluster.flight(0)->node(), 0u);
  expect_all_ordered(cluster);
}

TEST(Observability, RendezvousFlightsAlsoOrdered) {
  ClusterConfig cfg;
  cfg.flight = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 128 * 1024, 4, 100 * kUs);  // above rdv threshold
  expect_all_ordered(cluster);
  // Rendezvous records are flagged as such.
  bool saw_rdv = false;
  for (std::size_t i = 0; i < cluster.flight(0)->size(); ++i) {
    saw_rdv = saw_rdv || cluster.flight(0)->record(i).rdv;
  }
  EXPECT_TRUE(saw_rdv);
}

TEST(Observability, OrderingHoldsUnderFaultInjectedRetransmits) {
  ClusterConfig cfg;
  cfg.flight = true;
  cfg.nm.reliable = true;
  cfg.faults.defaults.drop = 0.15;
  cfg.faults.defaults.duplicate = 0.10;
  cfg.faults.defaults.corrupt = 0.05;
  Cluster cluster(cfg);
  run_pingpong(cluster, 2048, 20);
  // The plan is aggressive enough that this seed certainly retransmits.
  std::uint64_t retransmits = 0;
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    retransmits += cluster.comm(n).reliability()->stats().retransmits;
  }
  EXPECT_GT(retransmits, 0u);
  // Duplicate arrivals and retransmissions must not move first-write
  // stamps: every surviving record still satisfies the stage chains.
  expect_all_ordered(cluster);
}

TEST(Observability, OffloadLowersCriticalPath) {
  const auto run_mode = [](bool pioman) {
    ClusterConfig cfg;
    cfg.pioman = pioman;
    cfg.flight = true;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 8);
    return attribute_flights({cluster.flight(0), cluster.flight(1)});
  };
  const Attribution base = run_mode(false);
  const Attribution offl = run_mode(true);
  ASSERT_GT(base.sends, 0u);
  ASSERT_EQ(base.sends, offl.sends);  // identical workload
  EXPECT_EQ(base.offloaded, 0u);      // app-driven: nothing leaves the thread
  EXPECT_GT(offl.offloaded, 0u);
  EXPECT_LT(offl.crit_us.mean(), base.crit_us.mean());
  EXPECT_GT(offl.offl_us.mean(), 0.0);
  EXPECT_GT(base.pairs, 0u);
  EXPECT_GT(base.wire_us.mean(), 0.0);
}

TEST(Observability, RingWrapCountsDropped) {
  ClusterConfig cfg;
  cfg.flight = true;
  cfg.flight_capacity = 4;  // force wraps
  Cluster cluster(cfg);
  run_pingpong(cluster, 1024, 8);
  const nm::FlightRecorder* rec = cluster.flight(0);
  EXPECT_EQ(rec->size(), 4u);
  EXPECT_EQ(rec->total(), rec->size() + rec->dropped());
  EXPECT_GT(rec->dropped(), 0u);
  expect_all_ordered(cluster);
  // The drop count is also a bound gauge and a report line.
  EXPECT_EQ(cluster.metrics().value("node0/flight/dropped"),
            static_cast<double>(rec->dropped()));
  EXPECT_NE(format_report(cluster).find("records dropped"),
            std::string::npos);
}

TEST(Observability, EngineLockContentionIsProfiled) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 8);
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    const std::string lock = "node" + std::to_string(n) + "/locks/engine";
    const double acq = m.value(lock + "/acq");
    const double contended = m.value(lock + "/contended");
    EXPECT_GT(acq, 0.0) << lock;
    EXPECT_GE(acq, contended) << lock;
    const Log2Histogram* wait = m.find_histogram(lock + "/wait_us");
    const Log2Histogram* hold = m.find_histogram(lock + "/hold_us");
    ASSERT_NE(wait, nullptr) << lock;
    ASSERT_NE(hold, nullptr) << lock;
    // Wait samples are recorded for contended acquisitions only; every
    // outermost release records a hold.
    EXPECT_EQ(static_cast<double>(wait->total()), contended) << lock;
    EXPECT_EQ(static_cast<double>(hold->total()), acq) << lock;
  }
  // The report surfaces the same numbers.
  EXPECT_NE(format_report(cluster).find("lock: engine"), std::string::npos);
}

TEST(Observability, EventGaugesSplitTheSteppedEvents) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 8);
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  const double dispatched = m.value("sim/events/dispatched");
  const double granules = m.value("sim/events/spin_granules");
  EXPECT_EQ(dispatched,
            static_cast<double>(cluster.engine().events_processed()));
  EXPECT_EQ(granules, static_cast<double>(cluster.engine().side_processed()));
  // Contended engine-lock acquires spin; every granule but the last of a
  // spin is re-armed on its core without a fiber switch.
  ASSERT_GT(m.sum("node", "/locks/engine/contended"), 0u);
  const auto rearmed = static_cast<double>(m.sum("node", "/spin_granules"));
  EXPECT_GT(rearmed, 0.0);
  EXPECT_LE(rearmed, granules);
}

TEST(Observability, LockProfileDeterministicUnderFuzzSeed) {
  const auto run_once = [] {
    ClusterConfig cfg;
    cfg.fuzz_seed = 0xc0ffee;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 8);
    cluster.flush_observability();
    return std::pair<double, double>{
        cluster.metrics().value("node0/locks/engine/acq"),
        cluster.metrics().value("node0/locks/engine/contended")};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Observability, CoreStatesSumToSimTime) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 8);
  cluster.flush_observability();
  const MetricsRegistry& m = cluster.metrics();
  static const char* kStates[] = {"idle", "app", "engine", "tasklet",
                                  "blocked"};
  for (unsigned n = 0; n < cluster.nodes(); ++n) {
    for (unsigned c = 0; c < cluster.node(n).cpu_count(); ++c) {
      const std::string p = "node" + std::to_string(n) + "/cpu" +
                            std::to_string(c) + "/state/";
      std::uint64_t sum = 0;
      for (const char* s : kStates) {
        sum += static_cast<std::uint64_t>(m.value(p + s + "_ns"));
      }
      EXPECT_EQ(sum, cluster.now()) << p;
    }
  }
  // The engine and tasklet buckets are exercised by a PIOMan run.
  EXPECT_GT(m.sum("node0/cpu", "/state/engine_ns"), 0u);
  EXPECT_GT(m.sum("node0/cpu", "/state/app_ns"), 0u);
}

TEST(Observability, MetricsJsonExportIsValid) {
  const std::string path = ::testing::TempDir() + "/pm2_metrics_test.json";
  {
    ClusterConfig cfg;
    cfg.flight = true;
    Cluster cluster(cfg);
    run_pingpong(cluster, 4096, 4);
    ASSERT_TRUE(cluster.write_metrics_json(path));
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(json_valid(doc));
  EXPECT_NE(doc.find("\"schema\":\"pm2-metrics-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"attribution\""), std::string::npos);
  EXPECT_NE(doc.find("node0/nm/sends"), std::string::npos);
  EXPECT_NE(doc.find("attribution/critical_path_us_mean"),
            std::string::npos);
}

TEST(Observability, ReportReadsFromRegistry) {
  ClusterConfig cfg;
  cfg.flight = true;
  Cluster cluster(cfg);
  run_pingpong(cluster, 4096, 4);
  const std::string report = format_report(cluster);
  EXPECT_NE(report.find("node 0:"), std::string::npos);
  EXPECT_NE(report.find("node 1:"), std::string::npos);
  EXPECT_NE(report.find("attribution:"), std::string::npos);
  EXPECT_NE(report.find("critical-path"), std::string::npos);
  // The report's numbers come from the registry; spot-check one against
  // the subsystem truth.
  EXPECT_EQ(cluster.metrics().value("node0/nm/sends"),
            static_cast<double>(cluster.comm(0).stats().sends));
}

TEST(Observability, ClusterTraceWithFlightIsValidJsonWithFlows) {
  sim::Tracer tracer;
  ClusterConfig cfg;
  cfg.flight = true;
  Cluster cluster(cfg);
  cluster.attach_tracer(&tracer);
  run_pingpong(cluster, 4096, 4);
  sim::export_registry(tracer, cluster.metrics(), cluster.now());
  const std::string json = tracer.to_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("nm:isend"), std::string::npos);
  EXPECT_NE(json.find("nm:inject"), std::string::npos);
}

}  // namespace
}  // namespace pm2
