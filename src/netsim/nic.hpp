// Simulated NIC endpoint (one per node per rail).
//
// Transfer modes, mirroring MX-class hardware:
//  * inject()   — PIO / copy-to-registered-memory eager send.  The payload
//                 copy is charged as CPU time to the *calling* core; this
//                 is exactly the cost PIOMan offloads (§2.2).
//  * rdma_put() — zero-copy DMA into a buffer the receiver registered.
//                 Only descriptor setup is charged; the NIC moves the data.
//
// Completion/arrival notifications are pollable events; optionally an
// interrupt handler fires on arrival (used by PIOMan's blocking LWP, §3.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "netsim/costmodel.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::net {

class Fabric;

/// Opaque handle naming a registered receive buffer on a remote NIC.
using RdmaHandle = std::uint64_t;
inline constexpr RdmaHandle kInvalidRdmaHandle = 0;

/// What a poll() returns.
struct RxEvent {
  enum class Kind : std::uint8_t {
    kPacket,    // an eager/control packet arrived: `data` holds the bytes
    kRdmaDone,  // a zero-copy transfer into `rdma` completed (receiver side)
  };
  Kind kind = Kind::kPacket;
  unsigned src_node = 0;
  std::vector<std::byte> data;
  RdmaHandle rdma = kInvalidRdmaHandle;
  std::size_t rdma_offset = 0;  // where the write landed in the buffer
  std::size_t rdma_len = 0;     // how many bytes landed
};

class Nic {
 public:
  using InterruptHandler = std::function<void()>;
  using Completion = std::function<void()>;

  Nic(Fabric& fabric, unsigned node, unsigned rail);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] unsigned node() const noexcept { return node_; }
  [[nodiscard]] unsigned rail() const noexcept { return rail_; }

  /// Eager submission: copies `bytes` into registered memory (CPU-charged
  /// to the calling fiber's core) and puts the packet on the wire.  On
  /// return the user buffer is reusable (buffered-send semantics).
  /// `dst == node()` uses the intra-node shared-memory channel.
  void inject(unsigned dst, std::span<const std::byte> bytes);

  /// Firmware-path injection: same wire behaviour as inject() but charges
  /// no host CPU.  Used by the reliable-delivery sublayer for retransmits
  /// and standalone ACKs, which a real NIC's link-level ARQ engine issues
  /// without involving the host (MX-style firmware retransmission).  Safe
  /// to call from engine context (timers).
  void inject_raw(unsigned dst, std::span<const std::byte> bytes);

  /// Make `target` available for zero-copy writes from remote NICs.
  [[nodiscard]] RdmaHandle register_buffer(std::span<std::byte> target);
  void unregister_buffer(RdmaHandle h);

  /// Zero-copy write of `src` into the remote buffer `handle` (starting at
  /// `offset`) on `dst`.  Cheap descriptor setup on the caller; the NIC
  /// performs the copy.  `on_delivered` (optional) fires in engine context,
  /// in an event of this node's, when the remote write has fully landed —
  /// the local send-completion event.  `offset` allows multirail striping into one registered buffer.
  void rdma_put(unsigned dst, RdmaHandle handle,
                std::span<const std::byte> src, Completion on_delivered,
                std::size_t offset = 0);

  /// Pop the next receive event, if any.  Cheap (no CPU charge — callers
  /// charge their own poll costs).
  [[nodiscard]] std::optional<RxEvent> poll();
  [[nodiscard]] bool rx_pending() const noexcept { return !rx_.empty(); }

  /// Interrupt line: `handler` fires (engine context) whenever an event is
  /// enqueued while armed.
  void arm_interrupts(InterruptHandler handler);
  void disarm_interrupts();
  [[nodiscard]] bool interrupts_armed() const noexcept {
    return interrupt_ != nullptr;
  }

  /// Simulation-level arrival notification, independent of the interrupt
  /// line: fires on every delivery.  Real idle cores poll continuously and
  /// notice arrivals; parked simulated cores need this nudge to resume
  /// their polling loop.  Zero modelled cost.
  void set_rx_notify(std::function<void()> notify) {
    rx_notify_ = std::move(notify);
  }

  struct Stats {
    std::uint64_t packets_tx = 0;
    std::uint64_t packets_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t rdma_puts = 0;
    std::uint64_t rdma_bytes = 0;
    std::uint64_t interrupts_fired = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/nic0").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  friend class Fabric;

  /// Called by the fabric when something arrives for this NIC.
  void deliver(RxEvent event);

  Fabric& fabric_;
  unsigned node_;
  unsigned rail_;
  std::deque<RxEvent> rx_;
  InterruptHandler interrupt_;
  std::function<void()> rx_notify_;
  Stats stats_;
};

}  // namespace pm2::net
