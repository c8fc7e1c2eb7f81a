// Communication requests: the objects isend/irecv hand back and wait()
// consumes.  Owned and recycled by nm::Core.
//
// A ring allgather (kept for blocks above 1 KiB) posts N−1 receives at once,
// so each node's pool can peak at N−1 requests: the struct is kept to two
// cache lines' worth of bytes
// (static_assert below).  Per-request state that only some requests need
// lives with the Core instead — the flight record in a side array indexed
// by `slot`, the rendezvous bookkeeping in the rdv-send / RDMA-recv tables.
#pragma once

#include <cstdint>
#include <span>

#include "common/intrusive_list.hpp"
#include "core/cond.hpp"
#include "nmad/wire.hpp"

namespace pm2::nm {

class Core;

/// A completion callback that never allocates: `fn(ctx, arg)`.  Trivially
/// copyable, so attaching one costs three stores.
struct Continuation {
  void (*fn)(void* ctx, std::uint32_t arg) = nullptr;
  void* ctx = nullptr;
  std::uint32_t arg = 0;

  explicit operator bool() const noexcept { return fn != nullptr; }
  void operator()() const { fn(ctx, arg); }
};

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

  explicit Request(piom::Server* server) noexcept : cond(server) {}

  Op op = Op::kSend;
  State state = State::kFree;

  /// Reactivity-critical (rendezvous phase): counted in the PIOMan
  /// server's critical-arm so the blocking LWP watches for its events.
  bool critical = false;

  /// Completion flag; in PIOMan mode `cond` additionally wakes waiters.
  bool done = false;

  unsigned peer = 0;
  Tag tag = 0;
  Seq seq = 0;

  /// Recv side: actual message length after completion.
  std::uint32_t received_len = 0;

  /// Index of this request in its Core's pool (the flight-record slot).
  std::uint32_t slot = 0;

  union {
    /// Send side: the user payload (must stay valid until completion).
    std::span<const std::byte> send_data{};
    /// Recv side: the user buffer.
    std::span<std::byte> recv_buf;
  };

  /// When the request was posted (latency accounting).
  SimTime issued_at = 0;

  /// Unbound (no server) in app-driven mode, where only `done` is read.
  piom::Cond cond;

  /// Continuation attached via Core::set_continuation: runs exactly once
  /// from whatever context completes the request (a poll fiber, a tasklet,
  /// or raw engine context with no current CPU), after which the request
  /// is recycled — wait()/test() must not be called on such a request.
  /// The continuation must not block or charge CPU time.
  Continuation on_complete;

  ListHook hook;  // gate posting ring, then submission queue linkage

  [[nodiscard]] std::size_t size() const noexcept {
    return op == Op::kSend ? send_data.size() : recv_buf.size();
  }
};

static_assert(sizeof(Request) <= 128,
              "nm::Request grows every node's pool by N−1 entries per "
              "ring allgather; keep optional state in Core side tables");

}  // namespace pm2::nm
