// Request-lifecycle flight recorder.
//
// Every recorded nm::Request has a FlightRecord (held by nm::Core in a side
// array indexed by Request::slot, not inside the request): one monotonic
// simulation timestamp per lifecycle stage (posted by the application,
// enqueued into a strategy, offloaded to PIOMan, picked up by a tasklet,
// injected into the NIC, received off the wire, matched, completed, waited
// on, woken).  The
// stamps are plain array stores on the hot path — when recording is off the
// whole mechanism reduces to an untaken branch.
//
// Completed records are committed into a fixed-capacity per-node ring
// buffer (FlightRecorder) that an attribution pass walks after the run to
// split each request's latency into critical-path, offloaded, wire and
// wait components (see pm2/attribution.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simtime.hpp"
#include "nmad/wire.hpp"

namespace pm2::nm {

/// Lifecycle stages, in nominal order.  Not every request visits every
/// stage: eager sends skip kMatched, unexpected receives see kWireRx before
/// kPosted, app-driven (non-PIOMan) paths skip kOffloadPosted/kPickup.
enum class Stage : std::uint8_t {
  kPosted,         // isend()/irecv() called
  kEnqueued,       // send: accepted into the gate's strategy queue
  kOffloadPosted,  // send: injection handed to the PIOMan server
  kPickup,         // send: tasklet/fiber starts the injection work
  kInjected,       // send: last byte handed to the NIC
  kWireRx,         // recv: first wire packet of the message arrived
  kMatched,        // recv: matched a posted request (or CTS for rdv send)
  kCompleted,      // request completed
  kWaitEnter,      // application entered wait()
  kWoken,          // wait() returned
};

inline constexpr std::size_t kStageCount = 10;

[[nodiscard]] const char* stage_name(Stage s) noexcept;

struct FlightRecord {
  std::uint64_t id = 0;  // per-node monotonic id (0 = not recording)
  // Causal-trace lineage staged via Core::set_next_trace (0 = untraced):
  // joins this flight against the tracing subsystem's span tree.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint8_t op = 0;   // mirrors Request::Op
  bool rdv = false;
  bool offloaded = false;  // injection ran on a different context than post
  unsigned node = 0;
  unsigned peer = 0;
  Tag tag = 0;
  Seq seq = 0;
  std::uint32_t bytes = 0;
  std::uint32_t retransmits = 0;
  int post_cpu = -1;
  int exec_cpu = -1;
  /// Thread identity (marcel fiber pointer) at post time, compared against
  /// the identity at pickup to detect offload.
  const void* post_self = nullptr;

  SimTime t[kStageCount] = {};

  /// First write wins: retransmitted wire arrivals must not move kWireRx.
  void stamp(Stage s, SimTime now) noexcept {
    auto& slot = t[static_cast<std::size_t>(s)];
    if (slot == 0) slot = now;
  }

  [[nodiscard]] SimTime at(Stage s) const noexcept {
    return t[static_cast<std::size_t>(s)];
  }

  /// The stage-ordering invariant.  Three chains rather than one linear
  /// order, because unexpected messages hit the wire before the matching
  /// irecv is posted, and wait() may begin before or after completion:
  ///   posted ≤ enqueued ≤ offload-posted ≤ pickup ≤ injected ≤ completed
  ///   wire-rx ≤ matched ≤ completed ≤ woken
  ///   posted ≤ wait-enter ≤ woken
  [[nodiscard]] bool ordered() const noexcept;
};

/// Fixed-capacity ring of committed FlightRecords for one node.  Oldest
/// records are overwritten once `capacity` is exceeded; `dropped()` says
/// how many.
class FlightRecorder {
 public:
  explicit FlightRecorder(unsigned node, std::size_t capacity = 8192);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] unsigned node() const noexcept { return node_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Next per-node record id (starts at 1; 0 means "not recording").
  std::uint64_t next_id() noexcept { return ++last_id_; }

  /// Store a finished record (copied into the ring).
  void commit(const FlightRecord& rec);

  /// Bump the retransmit count of the newest in-ring send record matching
  /// (peer, tag, seq).  Called by the reliability layer; a miss is fine —
  /// the request may be older than the ring or still in flight.
  void note_retransmit(unsigned peer, Tag tag, Seq seq) noexcept;

  /// Records currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    return total_ < ring_.size() ? total_ : ring_.size();
  }
  /// All records ever committed.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Records lost to ring wrap.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - size();
  }

  /// i-th surviving record, oldest first (i < size()).
  [[nodiscard]] const FlightRecord& record(std::size_t i) const noexcept;

 private:
  unsigned node_;
  std::vector<FlightRecord> ring_;
  std::uint64_t last_id_ = 0;
  std::uint64_t total_ = 0;  // commits ever; total_ % capacity = next slot
};

}  // namespace pm2::nm
