// The interconnect: all NICs plus the link model (latency + serialization
// with per-link occupancy, FIFO delivery per link).  Per-link state is kept
// for the directed (src, dst, rail) links that have carried traffic, not
// for all N² × rails of them.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/simtime.hpp"
#include "netsim/costmodel.hpp"
#include "netsim/faults.hpp"
#include "netsim/nic.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace pm2::net {

class Fabric {
 public:
  /// Homogeneous rails: every rail uses `cost`.
  Fabric(sim::Engine& engine, unsigned nodes, unsigned rails, CostModel cost);

  /// Heterogeneous rails (e.g. Myrinet + InfiniBand side by side — the
  /// multirail configuration NewMadeleine targets): one CostModel per
  /// rail.  Intra-node parameters are taken from rail 0.
  Fabric(sim::Engine& engine, unsigned nodes,
         std::vector<CostModel> rail_costs);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  /// Rail-0 cost model (intra-node parameters live here).
  [[nodiscard]] const CostModel& cost() const noexcept { return costs_[0]; }
  /// Cost model of a specific rail.
  [[nodiscard]] const CostModel& cost(unsigned rail) const noexcept {
    return costs_[rail];
  }
  [[nodiscard]] unsigned nodes() const noexcept { return nodes_; }
  [[nodiscard]] unsigned rails() const noexcept { return rails_; }

  [[nodiscard]] Nic& nic(unsigned node, unsigned rail = 0) noexcept;

  /// The least delay between an inter-node send and its arrival: the
  /// least wire latency over the rails, or 0 while a rail jitters or a
  /// fault plan is installed (both draw from fabric-wide random streams,
  /// so their draws must stay in the global event order).  The engine's
  /// lookahead.
  [[nodiscard]] SimDuration lookahead() const noexcept;

  /// Install a fault-injection plan (replaces any previous one).  The
  /// injector applies to inter-node packet traffic only; with none
  /// installed the lossless fast path is untouched.
  void install_faults(FaultPlan plan, std::uint64_t seed);
  /// The active injector, or nullptr when the fabric is lossless.
  [[nodiscard]] FaultInjector* faults() noexcept { return faults_.get(); }

  /// RDMA registry is per *node* (all rails of a node share the memory
  /// registration unit), so multirail stripes can target one buffer.
  /// Handles are numbered per node.
  [[nodiscard]] RdmaHandle register_rdma(unsigned node,
                                         std::span<std::byte> target);
  void unregister_rdma(unsigned node, RdmaHandle h);
  [[nodiscard]] std::span<std::byte> rdma_target(unsigned node,
                                                 RdmaHandle h) const;

  /// Directed (src, dst, rail) links with occupancy state: those that have
  /// carried at least one transmission.
  [[nodiscard]] std::size_t link_entries() const noexcept {
    return busy_.size();
  }

 private:
  /// Per-link times keyed by flattened link index, made on first use: an
  /// open-addressing table with linear probing, so a lookup costs a hash
  /// and, at the load kept here, about one probe.
  class LinkTable {
   public:
    /// The link's time, 0 when first touched.
    SimTime& operator[](std::size_t link);
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    struct Slot {
      std::size_t key = 0;  // link + 1; 0 marks an empty slot
      SimTime time = 0;
    };
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  friend class Nic;

  /// Schedule delivery of `event` from (src,rail) to dst, `bytes` long on
  /// the wire, on dst's lane; `on_delivered` runs on src's lane at the
  /// same instant.  Applies latency + serialization + link occupancy.
  void transmit(unsigned src, unsigned dst, unsigned rail, std::size_t bytes,
                RxEvent event, Nic::Completion on_delivered,
                std::size_t rdma_offset = 0);

  sim::Engine& engine_;
  unsigned nodes_;
  unsigned rails_;
  std::vector<CostModel> costs_;  // one per rail
  std::vector<std::unique_ptr<Nic>> nics_;  // [node * rails + rail]
  // When each link's serializer frees up, and each link's last arrival
  // (FIFO under jitter; stays empty on jitter-free rails).
  LinkTable busy_;
  LinkTable last_arrival_;
  sim::Rng jitter_rng_;
  std::unique_ptr<FaultInjector> faults_;

  std::vector<std::map<RdmaHandle, std::span<std::byte>>> rdma_;  // per node
  std::vector<RdmaHandle> next_rdma_;                             // per node
};

}  // namespace pm2::net
