// Reliable-delivery sublayer: exactly-once in-order delivery under seeded
// drop/duplicate/reorder/corrupt fabrics, rendezvous handshake recovery
// from lost RTS and lost CTS, abandonment under total loss, counter
// visibility in stats and the Chrome trace, and the retransmit backoff.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nmad/reliable.hpp"
#include "pm2/cluster.hpp"
#include "sim/trace.hpp"

namespace pm2::nm {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 37 + i) & 0xff);
  }
  return v;
}

ClusterConfig lossy_config(const net::LinkFaults& defaults,
                           std::uint64_t seed = 0x5eed) {
  // Lossy runs use PIOMan mode: the background ltasks keep draining ACKs
  // and retransmissions after application threads finish.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cpus_per_node = 4;
  cfg.pioman = true;
  cfg.nm.reliable = true;
  cfg.nm.fault_seed = seed;
  cfg.faults.defaults = defaults;
  return cfg;
}

/// `count` eager messages in each direction; returns the two Core
/// reliability stats after verifying every payload arrived intact.
std::pair<Reliability::Stats, Reliability::Stats> run_bidirectional(
    const ClusterConfig& cfg, int count, std::size_t msg_size,
    sim::Tracer* tracer = nullptr) {
  Cluster cluster(cfg);
  if (tracer != nullptr) cluster.attach_tracer(tracer);
  std::vector<std::vector<std::byte>> tx01, tx10, rx01, rx10;
  for (int i = 0; i < count; ++i) {
    tx01.push_back(pattern(msg_size, i));
    tx10.push_back(pattern(msg_size, 1000 + i));
    rx01.emplace_back(msg_size);
    rx10.emplace_back(msg_size);
  }
  cluster.run_on(0, [&] {
    std::vector<Request*> reqs;
    for (auto& m : tx01) reqs.push_back(cluster.comm(0).isend(1, 7, m));
    for (Request* r : reqs) cluster.comm(0).wait(r);
  });
  cluster.run_on(1, [&] {
    for (auto& box : rx01) {
      Request* r = cluster.comm(1).irecv(0, 7, box);
      cluster.comm(1).wait(r);
    }
  });
  cluster.run_on(1, [&] {
    std::vector<Request*> reqs;
    for (auto& m : tx10) reqs.push_back(cluster.comm(1).isend(0, 8, m));
    for (Request* r : reqs) cluster.comm(1).wait(r);
  });
  cluster.run_on(0, [&] {
    for (auto& box : rx10) {
      Request* r = cluster.comm(0).irecv(1, 8, box);
      cluster.comm(0).wait(r);
    }
  });
  cluster.run();
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(rx01[i], tx01[i]) << "0->1 msg " << i;
    EXPECT_EQ(rx10[i], tx10[i]) << "1->0 msg " << i;
  }
  EXPECT_EQ(cluster.comm(0).reliability()->unacked(), 0u);
  EXPECT_EQ(cluster.comm(1).reliability()->unacked(), 0u);
  return {cluster.comm(0).reliability()->stats(),
          cluster.comm(1).reliability()->stats()};
}

TEST(ExpDelay, DoublesSaturatesAndResets) {
  ExpDelay d(100, 1000);
  EXPECT_EQ(d.current(), 100u);
  EXPECT_EQ(d.next(), 100u);  // returns the delay, then escalates
  EXPECT_EQ(d.current(), 200u);
  EXPECT_EQ(d.next(), 200u);
  EXPECT_EQ(d.next(), 400u);
  EXPECT_EQ(d.next(), 800u);
  EXPECT_EQ(d.next(), 1000u);  // 1600 saturates at max
  EXPECT_EQ(d.next(), 1000u);
  EXPECT_EQ(d.current(), 1000u);
  d.reset();
  EXPECT_EQ(d.current(), 100u);
  EXPECT_EQ(d.next(), 100u);
  EXPECT_EQ(d.current(), 200u);
}

TEST(ExpDelay, InitialAboveMaxClampsToInitial) {
  ExpDelay d(500, 100);  // max is raised to initial
  EXPECT_EQ(d.next(), 500u);
  EXPECT_EQ(d.next(), 500u);
  EXPECT_EQ(d.current(), 500u);
  d.reset();
  EXPECT_EQ(d.current(), 500u);
}

TEST(Reliability, CleanFabricNoRetransmits) {
  ClusterConfig cfg = lossy_config({});  // reliable on, zero fault rates
  const auto [s0, s1] = run_bidirectional(cfg, 10, 512);
  EXPECT_EQ(s0.retransmits, 0u);
  EXPECT_EQ(s1.retransmits, 0u);
  EXPECT_EQ(s0.corrupt_drops, 0u);
  EXPECT_GT(s0.data_tx, 0u);
}

TEST(Reliability, ExactlyOnceUnderDrop) {
  ClusterConfig cfg = lossy_config({.drop = 0.15});
  const auto [s0, s1] = run_bidirectional(cfg, 25, 256);
  EXPECT_GT(s0.retransmits + s1.retransmits, 0u);
  EXPECT_EQ(s0.abandoned + s1.abandoned, 0u);
}

TEST(Reliability, ExactlyOnceUnderDuplication) {
  ClusterConfig cfg = lossy_config({.duplicate = 1.0});
  const auto [s0, s1] = run_bidirectional(cfg, 15, 256);
  EXPECT_GT(s0.dup_drops + s1.dup_drops, 0u);
}

TEST(Reliability, ExactlyOnceUnderReordering) {
  net::LinkFaults lf;
  lf.reorder = 0.5;
  lf.reorder_delay_max = 100 * 1000;
  ClusterConfig cfg = lossy_config(lf);
  const auto [s0, s1] = run_bidirectional(cfg, 25, 128);
  EXPECT_GT(s0.ooo_buffered + s1.ooo_buffered, 0u);
}

TEST(Reliability, ExactlyOnceUnderCorruption) {
  ClusterConfig cfg = lossy_config({.corrupt = 0.2});
  const auto [s0, s1] = run_bidirectional(cfg, 25, 256);
  EXPECT_GT(s0.corrupt_drops + s1.corrupt_drops, 0u);
  EXPECT_GT(s0.retransmits + s1.retransmits, 0u);
}

TEST(Reliability, ExactlyOnceUnderAllFaultsCombined) {
  // The acceptance scenario: 1% of everything, simultaneously.
  net::LinkFaults lf;
  lf.drop = 0.01;
  lf.duplicate = 0.01;
  lf.reorder = 0.01;
  lf.corrupt = 0.01;
  ClusterConfig cfg = lossy_config(lf);
  const auto [s0, s1] = run_bidirectional(cfg, 40, 512);
  EXPECT_EQ(s0.abandoned + s1.abandoned, 0u);
}

TEST(Reliability, SameSeedSameRun) {
  net::LinkFaults lf;
  lf.drop = 0.1;
  lf.corrupt = 0.05;
  const auto [a0, a1] = run_bidirectional(lossy_config(lf, 99), 15, 256);
  const auto [b0, b1] = run_bidirectional(lossy_config(lf, 99), 15, 256);
  EXPECT_EQ(a0.retransmits, b0.retransmits);
  EXPECT_EQ(a0.data_tx, b0.data_tx);
  EXPECT_EQ(a1.corrupt_drops, b1.corrupt_drops);
  EXPECT_EQ(a1.acks_tx, b1.acks_tx);
}

TEST(Reliability, RendezvousRecoversFromLostRts) {
  // Until t=200µs the 0→1 link drops everything: the RTS (and any timer
  // retries inside the window) vanish.  The handshake must resume once the
  // link heals, completing the zero-copy transfer.
  ClusterConfig cfg = lossy_config({});
  cfg.faults.windows.push_back({.from = 0,
                                .until = 200 * 1000,
                                .src = 0,
                                .dst = 1,
                                .faults = {.drop = 1.0}});
  Cluster cluster(cfg);
  const std::size_t big = 256 * 1024;  // way past rdv_threshold
  const auto tx = pattern(big, 3);
  std::vector<std::byte> rx(big);
  cluster.run_on(0, [&] {
    Request* s = cluster.comm(0).isend(1, 5, tx);
    cluster.comm(0).wait(s);
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 5, rx);
    cluster.comm(1).wait(r);
  });
  cluster.run();
  EXPECT_EQ(rx, tx);
  EXPECT_GT(cluster.comm(0).reliability()->stats().retransmits, 0u);
  EXPECT_GT(cluster.now(), 200 * 1000);
}

TEST(Reliability, RendezvousRecoversFromLostCts) {
  // The reverse link misbehaves instead: the RTS lands, but the CTS (and
  // ACKs travelling 1→0) are dropped until the window closes.
  ClusterConfig cfg = lossy_config({});
  cfg.faults.windows.push_back({.from = 0,
                                .until = 200 * 1000,
                                .src = 1,
                                .dst = 0,
                                .faults = {.drop = 1.0}});
  Cluster cluster(cfg);
  const std::size_t big = 256 * 1024;
  const auto tx = pattern(big, 4);
  std::vector<std::byte> rx(big);
  cluster.run_on(0, [&] {
    Request* s = cluster.comm(0).isend(1, 5, tx);
    cluster.comm(0).wait(s);
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 5, rx);
    cluster.comm(1).wait(r);
  });
  cluster.run();
  EXPECT_EQ(rx, tx);
  EXPECT_GT(cluster.comm(1).reliability()->stats().retransmits, 0u);
}

TEST(Reliability, TotalLossAbandonsAndTerminates) {
  // A link that never delivers: the sender must give up after
  // max_retransmits instead of retrying forever (the engine quiesces).
  ClusterConfig cfg = lossy_config({.drop = 1.0});
  cfg.nm.rto_initial = 5 * 1000;
  cfg.nm.rto_max = 20 * 1000;
  cfg.nm.max_retransmits = 4;
  Cluster cluster(cfg);
  const auto tx = pattern(64, 9);
  cluster.run_on(0, [&] {
    // Buffered-send semantics: the wait completes at injection.
    Request* s = cluster.comm(0).isend(1, 2, tx);
    cluster.comm(0).wait(s);
  });
  cluster.run();
  EXPECT_EQ(cluster.comm(0).reliability()->stats().abandoned, 1u);
  EXPECT_EQ(cluster.comm(0).reliability()->stats().retransmits, 4u);
  EXPECT_EQ(cluster.comm(0).reliability()->unacked(), 0u);
}

TEST(Reliability, CountersReachTheChromeTrace) {
  net::LinkFaults lf;
  lf.drop = 0.1;
  lf.corrupt = 0.1;
  ClusterConfig cfg = lossy_config(lf);
  sim::Tracer tracer;
  run_bidirectional(cfg, 15, 256, &tracer);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("fabric/faults"), std::string::npos);
  EXPECT_NE(json.find("reliability"), std::string::npos);
  EXPECT_NE(json.find("retransmits"), std::string::npos);
}

TEST(Reliability, DisabledSublayerStillInteroperates) {
  // reliable=false on a clean fabric: packets carry no kFlagReliable and
  // the receive path passes them straight through (no Reliability object).
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.pioman = true;
  cfg.nm.reliable = false;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.comm(0).reliability(), nullptr);
  const auto tx = pattern(512, 6);
  std::vector<std::byte> rx(512);
  cluster.run_on(0, [&] {
    Request* s = cluster.comm(0).isend(1, 3, tx);
    cluster.comm(0).wait(s);
  });
  cluster.run_on(1, [&] {
    Request* r = cluster.comm(1).irecv(0, 3, rx);
    cluster.comm(1).wait(r);
  });
  cluster.run();
  EXPECT_EQ(rx, tx);
}

}  // namespace
}  // namespace pm2::nm
