// MetricsRegistry: registration semantics, name uniqueness, aggregation,
// and JSON export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"

namespace pm2 {
namespace {

TEST(Metrics, OwnedCounterSharesStorageByName) {
  MetricsRegistry reg;
  std::uint64_t& a = reg.counter("x/hits");
  a = 3;
  std::uint64_t& b = reg.counter("x/hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.value("x/hits"), 3.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, BoundCounterReadsThrough) {
  MetricsRegistry reg;
  std::uint64_t source = 0;
  reg.bind_counter("sub/ops", &source);
  EXPECT_EQ(reg.value("sub/ops"), 0.0);
  source = 41;
  EXPECT_EQ(reg.value("sub/ops"), 41.0);  // no re-registration needed
}

TEST(Metrics, BoundGaugeComputesAtReadTime) {
  MetricsRegistry reg;
  double level = 1.5;
  reg.bind_gauge("sub/level", [&level] { return level; });
  EXPECT_DOUBLE_EQ(reg.value("sub/level"), 1.5);
  level = -2.0;
  EXPECT_DOUBLE_EQ(reg.value("sub/level"), -2.0);
}

TEST(Metrics, KindClashAborts) {
  MetricsRegistry reg;
  reg.counter("dup");
  EXPECT_DEATH(reg.gauge("dup"), "different kind");
}

TEST(Metrics, ContainsAndLenientValue) {
  MetricsRegistry reg;
  reg.counter("present");
  EXPECT_TRUE(reg.contains("present"));
  EXPECT_FALSE(reg.contains("absent"));
  EXPECT_EQ(reg.value("absent"), 0.0);  // lenient: reports stay total
}

TEST(Metrics, SumAggregatesPrefixSuffix) {
  MetricsRegistry reg;
  reg.counter("node0/cpu0/steals") = 2;
  reg.counter("node0/cpu1/steals") = 3;
  reg.counter("node0/cpu1/dispatches") = 100;  // wrong suffix
  reg.counter("node1/cpu0/steals") = 50;       // wrong prefix
  EXPECT_EQ(reg.sum("node0/cpu", "/steals"), 5u);
}

TEST(Metrics, VisitIsNameOrdered) {
  MetricsRegistry reg;
  reg.counter("b");
  reg.counter("a");
  reg.gauge("c") = 1;
  std::vector<std::string> names;
  reg.visit([&](const MetricsRegistry::View& v) {
    names.emplace_back(v.name);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Metrics, HistogramExportsPercentiles) {
  MetricsRegistry reg;
  Log2Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 100; ++i) h.add(1000);
  EXPECT_EQ(reg.find_histogram("lat"), &h);
  EXPECT_EQ(reg.find_histogram("other"), nullptr);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":100"), std::string::npos);
}

TEST(Metrics, ToJsonIsValidJson) {
  MetricsRegistry reg;
  reg.counter("plain") = 7;
  reg.counter("weird \"name\"\nwith\\escapes") = 1;
  reg.gauge("g") = 0.25;
  std::uint64_t bound = 9;
  reg.bind_counter("bound", &bound);
  reg.histogram("h").add(42);
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"plain\":7"), std::string::npos);
  EXPECT_NE(json.find("\"bound\":9"), std::string::npos);
}

TEST(Metrics, EmptyRegistryToJsonIsValid) {
  MetricsRegistry reg;
  EXPECT_TRUE(json_valid(reg.to_json()));
}


// ------------------------------------------------- compact storage

// Names in a mixed registration order, with numeric suffixes that a
// numeric sort would order differently ("node10" before "node2" by bytes).
std::vector<std::string> shuffled_names() {
  std::vector<std::string> names;
  for (const char* node : {"node2", "node10", "node1", "node100", "node0"}) {
    for (const char* leaf : {"/cpu0/steals", "/cpu10/steals", "/cpu2/steals",
                             "/nm/sends", "/nm", "/a", "/A", "/nm/sends/x"}) {
      names.push_back(std::string(node) + leaf);
    }
  }
  names.push_back("node");
  names.push_back("node1");  // a prefix of other names, registered late
  names.push_back("fabric/faults/considered");
  names.push_back("~last");
  // A fixed permutation (17 is coprime with the 44 names), so the
  // registry never sees them in order.
  std::vector<std::string> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.push_back(names[(i * 17) % names.size()]);
  }
  return out;
}

TEST(MetricsRegistry, VisitAndJsonOrderMatchStdMap) {
  const std::vector<std::string> names = shuffled_names();
  MetricsRegistry reg;
  std::map<std::string, std::uint64_t> ref;
  std::vector<std::uint64_t> sources(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    sources[i] = i + 1;
    if (i % 2 == 0) {
      reg.bind_counter(names[i], &sources[i]);
    } else {
      reg.counter(names[i]) = sources[i];
    }
    ref.emplace(names[i], sources[i]);
  }
  std::vector<std::string> visited;
  reg.visit([&](const MetricsRegistry::View& v) {
    visited.emplace_back(v.name);
    EXPECT_EQ(v.number, static_cast<double>(ref.at(std::string(v.name))));
  });
  std::vector<std::string> expected;
  std::string json = "{\"counters\":{";
  for (const auto& [name, value] : ref) {
    expected.push_back(name);
    if (json.back() != '{') json += ",";
    json += "\"" + name + "\":" + std::to_string(value);
  }
  json += "},\"gauges\":{},\"histograms\":{}}";
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(reg.to_json(), json);
  EXPECT_EQ(reg.size(), ref.size());
}

TEST(MetricsRegistry, SameKindDuplicatesShareStorage) {
  MetricsRegistry reg;
  std::uint64_t& c = reg.counter("c");
  double& g = reg.gauge("g");
  Log2Histogram& h = reg.histogram("h");
  std::uint64_t source = 5;
  reg.bind_counter("b", &source);
  reg.bind_counter("b", &source);  // same source: one metric
  EXPECT_EQ(&reg.counter("c"), &c);
  EXPECT_EQ(&reg.gauge("g"), &g);
  EXPECT_EQ(&reg.histogram("h"), &h);
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.value("b"), 5.0);
}

TEST(MetricsRegistry, KindClashDies) {
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        std::uint64_t source = 0;
        reg.bind_counter("x", &source);
        reg.gauge("x");
      },
      "different kind");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        std::uint64_t source = 0;
        reg.bind_counter("x", &source);
        reg.bind_gauge("x", [] { return 1.0; });
        (void)reg.contains("x");  // bindings are checked when indexed
      },
      "different kind");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        reg.bind_counter("x", &a);
        reg.bind_counter("x", &b);
        (void)reg.size();
      },
      "different counter");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.bind_gauge("x", [] { return 1.0; });
        reg.bind_gauge("x", [] { return 2.0; });
        (void)reg.value("x");
      },
      "already bound to a gauge");
}

TEST(MetricsRegistry, LookupsSeeEveryRegistration) {
  MetricsRegistry reg;
  std::vector<std::uint64_t> steals(100);
  char name[64];
  // Bound and owned registrations interleaved with lookups, past the
  // unindexed stretch that owned registrations scan.
  for (unsigned n = 0; n < 100; ++n) {
    steals[n] = n;
    std::snprintf(name, sizeof name, "node%u/cpu0/steals", n);
    reg.bind_counter(name, &steals[n]);
    std::snprintf(name, sizeof name, "node%u/cpu1/steals", n);
    reg.counter(name) = 1;
    std::snprintf(name, sizeof name, "node%u/lat", n);
    reg.histogram(name).add(n + 1);
    if (n % 30 == 0) {
      EXPECT_TRUE(reg.contains(name));
      EXPECT_EQ(reg.find_histogram(name)->total(), 1u);
    }
  }
  EXPECT_EQ(reg.size(), 300u);
  EXPECT_EQ(reg.sum("node", "/steals"), 4950u + 100u);
  // node1 and node10..node19: cpu0 counts 1 + 10 + ... + 19, cpu1 one each.
  EXPECT_EQ(reg.sum("node1", "/steals"), 146u + 11u);
  EXPECT_EQ(reg.sum("node9/", "/steals"), 9u + 1u);
  EXPECT_EQ(reg.value("node42/cpu0/steals"), 42.0);
  EXPECT_EQ(reg.value("node42/cpu1/steals"), 1.0);
  EXPECT_EQ(reg.value("node42/lat"), 0.0);  // a histogram has no value
  EXPECT_EQ(reg.value("node100/cpu0/steals"), 0.0);
  EXPECT_TRUE(reg.contains("node99/lat"));
  EXPECT_FALSE(reg.contains("node99"));
  EXPECT_FALSE(reg.contains("node99/lat/"));
  ASSERT_NE(reg.find_histogram("node7/lat"), nullptr);
  EXPECT_EQ(reg.find_histogram("node7/lat")->total(), 1u);
  EXPECT_EQ(reg.find_histogram("node7/cpu0/steals"), nullptr);
  steals[3] = 1000;  // bound counters read through at lookup time
  EXPECT_EQ(reg.value("node3/cpu0/steals"), 1000.0);
}

TEST(MetricsRegistry, OwnedReferencesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  std::uint64_t& c = reg.counter("first/counter");
  double& g = reg.gauge("first/gauge");
  Log2Histogram& h = reg.histogram("first/hist");
  c = 7;
  g = 0.5;
  h.add(100);
  std::uint64_t source = 3;
  char name[64];
  for (unsigned i = 0; i < 10000; ++i) {
    std::snprintf(name, sizeof name, "later/%u", i);
    switch (i % 4) {
      case 0: reg.counter(name) = i; break;
      case 1: reg.gauge(name) = i; break;
      case 2: reg.histogram(name).add(i); break;
      default: reg.bind_counter(name, &source); break;
    }
  }
  EXPECT_EQ(&reg.counter("first/counter"), &c);
  EXPECT_EQ(&reg.gauge("first/gauge"), &g);
  EXPECT_EQ(&reg.histogram("first/hist"), &h);
  EXPECT_EQ(reg.find_histogram("first/hist"), &h);
  c += 1;
  EXPECT_EQ(reg.value("first/counter"), 8.0);
  EXPECT_EQ(reg.value("first/gauge"), 0.5);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(reg.size(), 10003u);
  EXPECT_EQ(reg.value("later/9999"), 3.0);
  EXPECT_EQ(reg.value("later/9997"), 9997.0);
}

}  // namespace
}  // namespace pm2
