// Simulated fabric: injection cost, delivery timing, link serialization,
// FIFO per link, RDMA semantics, intra-node channel, interrupts.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "marcel/runtime.hpp"
#include "netsim/fabric.hpp"
#include "sim/engine.hpp"

namespace pm2::net {
namespace {

using marcel::this_thread::compute;

struct Rig {
  sim::Engine eng;
  marcel::Runtime rt;
  Fabric fabric;
  explicit Rig(unsigned rails = 1, CostModel cm = {})
      : rt(eng, mk()), fabric(eng, 2, rails, cm) {}
  static marcel::Config mk() {
    marcel::Config c;
    c.nodes = 2;
    c.cpus_per_node = 2;
    return c;
  }
};

std::vector<std::byte> bytes(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return v;
}

TEST(Fabric, InjectChargesCpuAndDelivers) {
  Rig rig;
  const auto payload = bytes(1024);
  SimTime inject_done = 0;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0).inject(1, payload);
    inject_done = rig.eng.now();
  });
  rig.eng.run();
  const CostModel cm;
  // Injection charged the caller: base + per-byte.
  EXPECT_GE(inject_done, cm.inject_cost(1024));
  // Delivered at the peer.
  auto ev = rig.fabric.nic(1).poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, RxEvent::Kind::kPacket);
  EXPECT_EQ(ev->src_node, 0u);
  EXPECT_EQ(ev->data, payload);
}

TEST(Fabric, DeliveryTimeMatchesModel) {
  Rig rig;
  const auto payload = bytes(10'000);
  SimTime arrival = 0;
  rig.rt.node(1).spawn([&] {
    Nic& nic = rig.fabric.nic(1);
    while (!nic.rx_pending()) compute(1 * kUs);
    arrival = rig.eng.now();
  });
  SimTime injected_at = 0;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0).inject(1, payload);
    injected_at = rig.eng.now();
  });
  rig.eng.run();
  const CostModel cm;
  const SimTime expect_arrival =
      injected_at + cm.wire_latency + cm.wire_time(10'000);
  EXPECT_GE(arrival, expect_arrival);
  EXPECT_LE(arrival, expect_arrival + 2 * kUs);  // poll granularity
}

TEST(Fabric, LinkFifoOrder) {
  Rig rig;
  rig.rt.node(0).spawn([&] {
    for (int i = 0; i < 10; ++i) {
      rig.fabric.nic(0).inject(1, bytes(64, i));
    }
  });
  rig.eng.run();
  for (int i = 0; i < 10; ++i) {
    auto ev = rig.fabric.nic(1).poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->data[0], static_cast<std::byte>(i & 0xff)) << "packet " << i;
  }
  EXPECT_FALSE(rig.fabric.nic(1).poll().has_value());
}

TEST(Fabric, LinkSerializationDelaysBackToBack) {
  // Two large packets injected back-to-back: the second one's arrival is
  // pushed out by the first one's serialization time.
  Rig rig;
  const std::size_t sz = 100'000;
  std::vector<SimTime> arrivals;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0).inject(1, bytes(sz, 1));
    rig.fabric.nic(0).inject(1, bytes(sz, 2));
  });
  rig.rt.node(1).spawn([&] {
    while (arrivals.size() < 2) {
      if (rig.fabric.nic(1).poll().has_value()) {
        arrivals.push_back(rig.eng.now());
      } else {
        compute(kUs / 2);
      }
    }
  });
  rig.eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const CostModel cm;
  // Gap between arrivals >= serialization of one packet (minus poll jitter).
  EXPECT_GE(arrivals[1] - arrivals[0], cm.wire_time(sz) - kUs);
}

TEST(Fabric, LinkStateIsMadeOnFirstUseAndKept) {
  // Link occupancy is kept only for links that carried traffic.  A large
  // packet to node 1, then one small packet to each of 46 other nodes
  // (the link table grows and rehashes meanwhile), then a small packet to
  // node 1: it must still queue behind the large one.
  constexpr unsigned kNodes = 48;
  sim::Engine eng;
  marcel::Config mc;
  mc.nodes = kNodes;
  mc.cpus_per_node = 1;
  marcel::Runtime rt(eng, mc);
  Fabric fabric(eng, kNodes, 1, CostModel{});
  EXPECT_EQ(fabric.link_entries(), 0u);
  const std::size_t big = 100'000;
  rt.node(0).spawn([&] {
    fabric.nic(0).inject(1, bytes(big, 1));
    for (unsigned dst = 2; dst < kNodes; ++dst) {
      fabric.nic(0).inject(dst, bytes(8, 2));
    }
    fabric.nic(0).inject(1, bytes(8, 3));
  });
  eng.run();
  EXPECT_EQ(fabric.link_entries(), kNodes - 1);
  auto first = fabric.nic(1).poll();
  auto second = fabric.nic(1).poll();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->data.size(), big);
  EXPECT_EQ(second->data.size(), 8u);
}

TEST(Fabric, RailsAreIndependentLinks) {
  Rig rig(/*rails=*/2);
  const std::size_t sz = 100'000;
  SimTime done1 = 0, done2 = 0;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0, 0).inject(1, bytes(sz, 1));
    rig.fabric.nic(0, 1).inject(1, bytes(sz, 2));
  });
  rig.rt.node(1).spawn([&] {
    while (done1 == 0 || done2 == 0) {
      if (rig.fabric.nic(1, 0).poll().has_value()) done1 = rig.eng.now();
      if (rig.fabric.nic(1, 1).poll().has_value()) done2 = rig.eng.now();
      compute(kUs / 2);
    }
  });
  rig.eng.run();
  const CostModel cm;
  // Parallel rails: both arrive ~one serialization apart from injection,
  // not two.
  EXPECT_LT(std::max(done1, done2),
            cm.inject_cost(sz) * 2 + cm.wire_time(sz) + cm.wire_latency +
                5 * kUs);
}

TEST(Fabric, RdmaPutWritesRegisteredBuffer) {
  Rig rig;
  const auto payload = bytes(64 * 1024, 7);
  std::vector<std::byte> target(64 * 1024);
  RdmaHandle handle = kInvalidRdmaHandle;
  bool sender_done = false;
  rig.rt.node(1).spawn([&] {
    handle = rig.fabric.nic(1).register_buffer(target);
  });
  rig.rt.node(0).spawn([&] {
    compute(5 * kUs);  // let the receiver register first
    rig.fabric.nic(0).rdma_put(1, handle, payload,
                               [&] { sender_done = true; });
  });
  rig.eng.run();
  EXPECT_TRUE(sender_done);
  EXPECT_EQ(target, payload);
  auto ev = rig.fabric.nic(1).poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, RxEvent::Kind::kRdmaDone);
  EXPECT_EQ(ev->rdma, handle);
  EXPECT_EQ(ev->rdma_len, payload.size());
}

TEST(Fabric, RdmaPutWithOffsetStripes) {
  Rig rig(/*rails=*/2);
  std::vector<std::byte> target(1000);
  const auto lo = bytes(500, 3);
  const auto hi = bytes(500, 9);
  RdmaHandle handle = kInvalidRdmaHandle;
  rig.rt.node(1).spawn([&] {
    handle = rig.fabric.nic(1).register_buffer(target);
  });
  rig.rt.node(0).spawn([&] {
    compute(5 * kUs);
    rig.fabric.nic(0, 0).rdma_put(1, handle, lo, {}, 0);
    rig.fabric.nic(0, 1).rdma_put(1, handle, hi, {}, 500);
  });
  rig.eng.run();
  EXPECT_TRUE(std::memcmp(target.data(), lo.data(), 500) == 0);
  EXPECT_TRUE(std::memcmp(target.data() + 500, hi.data(), 500) == 0);
}

TEST(Fabric, RdmaSetupIsCheap) {
  // Zero-copy: programming a 512K DMA must cost far less CPU than
  // injecting 512K eagerly.
  Rig rig;
  const auto payload = bytes(512 * 1024);
  std::vector<std::byte> target(512 * 1024);
  RdmaHandle handle = kInvalidRdmaHandle;
  rig.rt.node(1).spawn(
      [&] { handle = rig.fabric.nic(1).register_buffer(target); });
  SimDuration put_cpu = 0;
  rig.rt.node(0).spawn([&] {
    compute(5 * kUs);
    const SimDuration before = marcel::this_thread::self()->cpu_time();
    rig.fabric.nic(0).rdma_put(1, handle, payload, {});
    put_cpu = marcel::this_thread::self()->cpu_time() - before;
  });
  rig.eng.run();
  const CostModel cm;
  EXPECT_LE(put_cpu, 2 * cm.dma_setup);
  EXPECT_LT(put_cpu, cm.inject_cost(512 * 1024) / 100);
}

TEST(Fabric, IntraNodeChannelIsFaster) {
  Rig rig;
  SimTime intra_arrival = 0, inter_arrival = 0;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0).inject(0, bytes(4096));  // loopback
    while (!rig.fabric.nic(0).rx_pending()) compute(kUs / 4);
    intra_arrival = rig.eng.now();
  });
  rig.rt.node(1).spawn([&] {
    rig.fabric.nic(1).inject(0, bytes(4096));
  });
  rig.rt.node(0).spawn(
      [&] {
        Nic& nic = rig.fabric.nic(0);
        (void)nic;
      },
      marcel::Priority::kNormal, "noop", 1);
  rig.eng.run();
  (void)inter_arrival;
  const CostModel cm;
  EXPECT_LT(intra_arrival,
            cm.inject_cost(4096) + cm.intra_latency + cm.intra_time(4096) +
                2 * kUs);
}

TEST(Fabric, InterruptFiresOnArrival) {
  Rig rig;
  int fired = 0;
  rig.fabric.nic(1).arm_interrupts([&] { ++fired; });
  rig.rt.node(0).spawn([&] { rig.fabric.nic(0).inject(1, bytes(128)); });
  rig.eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rig.fabric.nic(1).stats().interrupts_fired, 1u);
}

TEST(Fabric, InterruptOnArmWithPendingRx) {
  Rig rig;
  rig.rt.node(0).spawn([&] { rig.fabric.nic(0).inject(1, bytes(128)); });
  rig.eng.run();
  int fired = 0;
  rig.fabric.nic(1).arm_interrupts([&] { ++fired; });
  EXPECT_EQ(fired, 1) << "arming with pending rx must fire immediately";
  rig.fabric.nic(1).disarm_interrupts();
}

TEST(Fabric, StatsAccounting) {
  Rig rig;
  rig.rt.node(0).spawn([&] {
    rig.fabric.nic(0).inject(1, bytes(100));
    rig.fabric.nic(0).inject(1, bytes(200));
  });
  rig.eng.run();
  EXPECT_EQ(rig.fabric.nic(0).stats().packets_tx, 2u);
  EXPECT_EQ(rig.fabric.nic(0).stats().bytes_tx, 300u);
  EXPECT_EQ(rig.fabric.nic(1).stats().packets_rx, 2u);
}

}  // namespace
}  // namespace pm2::net
