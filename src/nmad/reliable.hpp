// Reliable-delivery sublayer: a link-level ARQ between nm::Core and the
// simulated NICs, for fabrics with a FaultPlan installed.
//
// Protocol (per peer node, all rails share one sequence space):
//
//   sender                                receiver
//   ──────                                ────────
//   assign psn, piggyback cumulative ack
//   checksum-seal, stash copy  ──pkt──▶   verify checksum (corrupt → drop
//   arm retransmit timer                    + duplicate-ACK as a NACK)
//                                         psn == recv_next → deliver, drain
//                                           reorder buffer, delayed ACK
//                                         psn <  recv_next → dup-drop, re-ACK
//                                         psn >  recv_next → buffer, dup-ACK
//   ack advances → drop stashed copies,
//     reset backoff
//   2 duplicate ACKs → fast retransmit
//   timer fires → retransmit oldest,
//     exponential backoff (ExpDelay)
//
// Retransmits and standalone ACKs go through Nic::inject_raw — the
// firmware path, charged no host CPU and callable from engine-context
// timers — mirroring how MX-class NICs run link-level recovery without
// the host.  The rendezvous handshake needs no extra machinery: RTS and
// CTS are ordinary sequenced packets, so a lost one is retransmitted and
// the handshake resumes where it stopped.
//
// Counters flow into stats() and, when a tracer is attached to the
// runtime, onto "nodeN/reliability" Chrome-trace counter tracks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "nmad/config.hpp"
#include "nmad/wire.hpp"
#include "sim/engine.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::nm {

class Core;

/// Bounded exponential delay for the retransmit timer: starts at
/// `initial`, doubles per escalation, saturates at `max` (virtual ns).
class ExpDelay {
 public:
  explicit ExpDelay(std::uint64_t initial = 1, std::uint64_t max = 1) noexcept
      : initial_(initial), max_(std::max(initial, max)), cur_(initial) {}

  [[nodiscard]] std::uint64_t current() const noexcept { return cur_; }

  /// Return the current delay and escalate for the next round.
  std::uint64_t next() noexcept {
    const std::uint64_t c = cur_;
    cur_ = std::min(max_, cur_ * 2);
    return c;
  }

  void reset() noexcept { cur_ = initial_; }

 private:
  std::uint64_t initial_;
  std::uint64_t max_;
  std::uint64_t cur_;
};

class Reliability {
 public:
  Reliability(Core& core, const Config& cfg);
  ~Reliability();

  Reliability(const Reliability&) = delete;
  Reliability& operator=(const Reliability&) = delete;

  /// Sender path: sequence, piggyback the cumulative ACK, seal, stash a
  /// retransmit copy, and inject on `rail`.  Call from fiber context (the
  /// injection charges CPU like any eager submission).
  void send(unsigned dst, unsigned rail, std::vector<std::byte> pkt);

  /// Receiver path: consume one arrived packet.  Returns the packets now
  /// deliverable to the core, in sequence order (none for ACKs, corrupt,
  /// duplicate, or out-of-order arrivals).
  [[nodiscard]] std::vector<std::vector<std::byte>> receive(
      unsigned src, std::vector<std::byte> pkt);

  struct Stats {
    std::uint64_t data_tx = 0;           // sequenced packets sent
    std::uint64_t acks_tx = 0;           // standalone kAck packets sent
    std::uint64_t acks_rx = 0;           // standalone kAck packets received
    std::uint64_t retransmits = 0;       // timer + fast retransmissions
    std::uint64_t fast_retransmits = 0;  // subset triggered by dup-ACKs
    std::uint64_t dup_drops = 0;         // duplicates discarded
    std::uint64_t ooo_buffered = 0;      // held in the reorder buffer
    std::uint64_t corrupt_drops = 0;     // checksum failures
    std::uint64_t truncated_drops = 0;   // shorter than a WireHeader
    std::uint64_t abandoned = 0;         // gave up after max_retransmits
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/reliable").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

  /// Sequenced packets not yet cumulatively ACKed, across all peers.
  [[nodiscard]] std::size_t unacked() const noexcept;

 private:
  struct Outstanding {
    std::vector<std::byte> pkt;
    unsigned rail = 0;
    unsigned tries = 0;
  };
  struct Peer {
    std::uint32_t send_next = 0;  // next psn to assign
    std::uint32_t recv_next = 0;  // next psn expected (cumulative ACK value)
    std::map<std::uint32_t, Outstanding> unacked;
    std::map<std::uint32_t, std::vector<std::byte>> ooo;  // reorder buffer
    ExpDelay rto;
    sim::EventId rtx_timer = 0;
    sim::EventId ack_timer = 0;
    std::uint32_t last_ack_rx = 0;
    unsigned dup_ack_count = 0;
  };

  [[nodiscard]] sim::Engine& engine() noexcept;
  void handle_ack(unsigned id, Peer& p, std::uint32_t ack, bool pure);
  void arm_rtx(unsigned id, Peer& p);
  void rtx_fire(unsigned id);
  void retransmit_oldest(unsigned id, Peer& p, bool fast);
  void schedule_ack(unsigned id, Peer& p);
  void send_ack_now(unsigned id, Peer& p);
  void emit_counters();

  Core& core_;
  Config cfg_;
  std::vector<Peer> peers_;  // indexed by peer node id
  Stats stats_;
};

}  // namespace pm2::nm
