#include "netsim/fabric.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pm2::net {

Fabric::Fabric(sim::Engine& engine, unsigned nodes, unsigned rails,
               CostModel cost)
    : Fabric(engine, nodes, std::vector<CostModel>(rails, cost)) {}

Fabric::Fabric(sim::Engine& engine, unsigned nodes,
               std::vector<CostModel> rail_costs)
    : engine_(engine),
      nodes_(nodes),
      rails_(static_cast<unsigned>(rail_costs.size())),
      costs_(std::move(rail_costs)),
      jitter_rng_(costs_.empty() ? 0 : costs_[0].jitter_seed),
      next_rdma_(nodes, 1) {
  PM2_ASSERT(nodes >= 1 && rails_ >= 1);
  nics_.reserve(static_cast<std::size_t>(nodes) * rails_);
  for (unsigned n = 0; n < nodes; ++n) {
    for (unsigned r = 0; r < rails_; ++r) {
      nics_.push_back(std::make_unique<Nic>(*this, n, r));
    }
  }
  rdma_.resize(nodes);
}

RdmaHandle Fabric::register_rdma(unsigned node, std::span<std::byte> target) {
  PM2_ASSERT(node < nodes_);
  const RdmaHandle h = next_rdma_[node]++;
  rdma_[node].emplace(h, target);
  return h;
}

void Fabric::unregister_rdma(unsigned node, RdmaHandle h) {
  PM2_ASSERT(node < nodes_);
  const auto erased = rdma_[node].erase(h);
  PM2_ASSERT_MSG(erased == 1, "unregistering an unknown RDMA handle");
}

std::span<std::byte> Fabric::rdma_target(unsigned node, RdmaHandle h) const {
  PM2_ASSERT(node < nodes_);
  const auto it = rdma_[node].find(h);
  PM2_ASSERT_MSG(it != rdma_[node].end(),
                 "RDMA access to an unregistered buffer");
  return it->second;
}

SimDuration Fabric::lookahead() const noexcept {
  if (faults_ != nullptr) return 0;
  SimDuration least = kSimTimeNever;
  for (const CostModel& cm : costs_) {
    if (cm.wire_jitter_ns > 0) return 0;
    least = std::min(least, cm.wire_latency);
  }
  return least;
}

void Fabric::install_faults(FaultPlan plan, std::uint64_t seed) {
  faults_ = std::make_unique<FaultInjector>(std::move(plan), seed);
  engine_.set_lookahead(0);
}

Nic& Fabric::nic(unsigned node, unsigned rail) noexcept {
  PM2_ASSERT(node < nodes_ && rail < rails_);
  return *nics_[static_cast<std::size_t>(node) * rails_ + rail];
}

SimTime& Fabric::LinkTable::operator[](std::size_t link) {
  if ((size_ + 1) * 2 > slots_.size()) grow();  // load ≤ 1/2
  const std::size_t mask = slots_.size() - 1;
  const std::size_t key = link + 1;
  // Fibonacci hashing spreads the dense link indexes over the table.
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> 32 & mask;;
       i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.key == key) return s.time;
    if (s.key == 0) {
      s.key = key;
      ++size_;
      return s.time;
    }
  }
}

void Fabric::LinkTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 64));
  old.swap(slots_);
  size_ = 0;
  for (const Slot& s : old) {
    if (s.key != 0) (*this)[s.key - 1] = s.time;
  }
}

void Fabric::transmit(unsigned src, unsigned dst, unsigned rail,
                      std::size_t bytes, RxEvent event,
                      Nic::Completion on_delivered, std::size_t rdma_offset) {
  PM2_ASSERT(src < nodes_ && dst < nodes_ && rail < rails_);
  const bool intra = src == dst;
  const CostModel& cm = costs_[rail];
  SimDuration serialize =
      intra ? cm.intra_time(bytes) : cm.wire_time(bytes);
  if (!intra && cm.mtu > 0 && bytes > cm.mtu) {
    // Segmentation: each additional frame pays header + inter-frame gap.
    const std::size_t frames = (bytes + cm.mtu - 1) / cm.mtu;
    serialize += static_cast<SimDuration>(frames - 1) * cm.frame_overhead;
  }
  const SimDuration latency = intra ? cm.intra_latency : cm.wire_latency;

  // FIFO link with serialization: a packet starts once the previous one has
  // left the serializer; latency pipelines across packets.
  const std::size_t link =
      (static_cast<std::size_t>(src) * nodes_ + dst) * rails_ + rail;
  SimTime& busy = busy_[link];
  const SimTime start = std::max(engine_.now(), busy);
  busy = start + serialize;
  SimTime arrival = start + serialize + latency;
  if (cm.wire_jitter_ns > 0 && !intra) {
    // Deterministic congestion noise; FIFO per link is preserved by
    // clamping against the previous arrival.
    arrival += jitter_rng_.next_below(cm.wire_jitter_ns + 1);
    SimTime& last = last_arrival_[link];
    arrival = std::max(arrival, last);
    last = arrival;
  }

  event.rdma_offset = rdma_offset;
  event.rdma_len = bytes;

  // Fault injection: inter-node packet traffic only (the RDMA data channel
  // is modelled as firmware-reliable, see faults.hpp).  No injector means
  // this whole block is one never-taken branch — the lossless fast path.
  if (faults_ != nullptr && !intra &&
      event.kind == RxEvent::Kind::kPacket) [[unlikely]] {
    const FaultAction act =
        faults_->decide(src, dst, rail, engine_.now(), event.data.size());
    if (act.drop) return;  // occupied the link, never arrives
    if (act.corrupt) {
      event.data[act.corrupt_bit >> 3] ^=
          static_cast<std::byte>(1u << (act.corrupt_bit & 7));
    }
    if (act.extra_delay > 0) {
      // Extra delay added *after* the FIFO clamp above: later packets keep
      // their earlier arrivals, so delivery order genuinely breaks.
      arrival += act.extra_delay;
    }
    for (unsigned c = 1; c <= act.extra_copies; ++c) {
      constexpr SimDuration kDupGap = 500;  // ns between duplicate copies
      RxEvent dup = event;
      engine_.schedule_on(sim::node_lane(dst), arrival + c * kDupGap,
                          [this, dst, rail, ev = std::move(dup)]() mutable {
                            nic(dst, rail).deliver(std::move(ev));
                          });
    }
  }

  // The arrival is the receiver's event; the sender learns of it in an
  // event of its own at the same instant, drawn right after, so the two
  // run back to back.
  engine_.schedule_on(sim::node_lane(dst), arrival,
                      [this, dst, rail, ev = std::move(event)]() mutable {
                        nic(dst, rail).deliver(std::move(ev));
                      });
  if (on_delivered) {
    engine_.schedule_on(sim::node_lane(src), arrival, std::move(on_delivered));
  }
}

}  // namespace pm2::net
