// Communication requests: the objects isend/irecv hand back and wait()
// consumes.  Owned and recycled by nm::Core.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/intrusive_list.hpp"
#include "core/cond.hpp"
#include "nmad/flight.hpp"
#include "nmad/wire.hpp"

namespace pm2::nm {

class Core;

struct Request {
  enum class Op : std::uint8_t { kSend, kRecv };

  enum class State : std::uint8_t {
    kFree,          // on the freelist
    kQueued,        // send: in the gate's submission queue
    kRdvHandshake,  // send: RTS submitted, waiting for CTS
    kDataInFlight,  // rdv data moving (both sides)
    kPosted,        // recv: waiting for a matching message
    kCompleted,
  };

  Op op = Op::kSend;
  State state = State::kFree;
  unsigned peer = 0;
  Tag tag = 0;
  Seq seq = 0;

  /// Send side: the user payload (must stay valid until completion).
  std::span<const std::byte> send_data;
  /// Recv side: the user buffer.
  std::span<std::byte> recv_buf;
  /// Recv side: actual message length after completion.
  std::size_t received_len = 0;

  /// When the request was posted (latency accounting).
  SimTime issued_at = 0;

  /// Rendezvous bookkeeping.
  std::uint64_t rdv_id = 0;
  std::uint64_t rdma_handle = 0;
  std::size_t rdv_expected = 0;  // recv: total bytes the RTS announced
  unsigned parts_left = 0;       // multirail stripes not yet landed

  /// Reactivity-critical (rendezvous phase): counted in the PIOMan
  /// server's critical-arm so the blocking LWP watches for its events.
  bool critical = false;

  /// Completion flag; in PIOMan mode `cond` additionally wakes waiters.
  bool done = false;
  std::optional<piom::Cond> cond;

  /// Continuation attached via Core::set_continuation: runs exactly once
  /// from whatever context completes the request (a poll fiber, a tasklet,
  /// or raw engine context with no current CPU), after which the request
  /// is recycled — wait()/test() must not be called on such a request.
  /// The continuation must not block or charge CPU time.
  std::function<void()> on_complete;

  /// Lifecycle stamps, committed to the node's FlightRecorder on release.
  /// Lives by value here (not a ring-slot pointer) so a wrap of the ring
  /// can never clobber a record still being written.
  FlightRecord flight;
  bool flight_on = false;

  ListHook hook;  // gate posting ring, then submission queue linkage

  [[nodiscard]] std::size_t size() const noexcept {
    return op == Op::kSend ? send_data.size() : recv_buf.size();
  }
};

}  // namespace pm2::nm
