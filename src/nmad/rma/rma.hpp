// One-sided RMA windows with passive-target progression.
//
// The purest test of the paper's claim: the target of a put/get/accumulate
// never calls into the library during an epoch.  Incoming RMA wire packets
// bypass tag matching entirely — nm::Core hands them to this engine (the
// registered RmaSink) from its own progression path, so they are applied
// in *engine context*: an idle core's poll fiber or a PIOMan tasklet under
// ProgressMode::kPioman, or whoever calls Engine::progress() under the
// app-driven baseline.  There is never a posted recv.  The HLRS PGAS paper
// (arXiv:1609.08574) buys the same passivity with a dedicated async-
// progress process per rank; PIOMan tasklets deliver it on idle cycles of
// the cores the application already owns.
//
// Wire band: PacketKind::kRmaPut..kRmaFlushAck (see the usage matrix in
// wire.hpp).  Puts and accumulates at or below Config::rdv_threshold
// travel as eager one-sided messages; larger puts reuse the rendezvous
// shape (kRmaRts/kRmaCts) and land zero-copy via NIC RDMA into the
// window, with WireHeader::handle carrying the target's registered RDMA
// handle exactly as the two-sided kCts does.
//
// Epochs (ordering rules, all asserted):
//   - fence(win): collective, toggling.  1st/3rd/... call opens a fence
//     epoch on every rank (barrier first, so no op can land before every
//     rank left the previous epoch); 2nd/4th/... call closes it
//     (flush_all, then barrier).  Unlike MPI_Win_fence there is no
//     implicit close-and-reopen: the epoch state is an explicit toggle.
//   - lock(win, rank)/unlock(win, rank): per-origin passive epoch towards
//     one target (MPI_LOCK_SHARED semantics).  unlock() flushes.  Locks
//     are *epochs*, not mutexes: mutual exclusion of concurrent
//     accumulates comes from single-threaded engine-context application,
//     not from the lock.
//   - Every put/get/accumulate requires an open epoch covering its
//     target; lock() inside an open fence epoch (or vice versa) asserts.
//   - flush(win, rank) orders: every put/accumulate issued to `rank`
//     before the flush is remotely applied, and every get from `rank` has
//     landed, when it returns.  Ops issued *after* a flush are not
//     covered by it.  No ordering is promised between unflushed ops.
//
// Completion fences ride the same band: flush sends kRmaFlushReq carrying
// the origin's issued-count; the target acks (kRmaFlushAck) once its
// applied-count from that origin catches up, parking the fence until then
// — the one-sided analogue of the reliable sublayer's cumulative-ack
// pattern.  Conservation laws over the nodeN/rma/* counters (puts_issued
// == puts_applied + in-flight, fences retire exactly) are checked by
// tools/check_metrics.py --expect-rma; docs/rma.md has the full model.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/cond.hpp"
#include "nmad/coll/coll.hpp"
#include "nmad/core.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::nm::rma {

using WinId = std::uint32_t;

/// Accumulate combiner, applied element-wise at the target.
enum class AccOp : std::uint8_t { kReplace, kSum, kMax };

/// Accumulate element type (8 bytes either way; offset and size must be
/// 8-byte aligned).
enum class AccType : std::uint8_t { kU64, kF64 };

/// Flight records of RMA operations carry tags in this band (win id in the
/// low bits) so dumps and attribution can tell them from tag-matched
/// traffic; it sits above the RPC band, which real tags never reach.
inline constexpr Tag kRmaFlightBand = 0xE0000000u;

/// Per-rank one-sided engine on top of one nm::Core.  Construction is
/// collective across the cluster (every rank must create its engine
/// before any rank creates a window).
class Engine final : public RmaSink {
 public:
  Engine(Core& core, coll::Engine& coll);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] unsigned rank() const noexcept { return core_.node_id(); }
  [[nodiscard]] unsigned world() const noexcept { return coll_.world(); }
  [[nodiscard]] Core& core() noexcept { return core_; }

  // ---- window lifecycle ----

  /// Collective: every rank exposes `local` (possibly of different sizes)
  /// and receives the same window id.  Remote base addresses never cross
  /// the wire — ops address (win, rank, offset) and the id advances in
  /// lockstep; the per-rank sizes are allgathered so origins can bounds-
  /// check before injecting.  The buffer must outlive the window.
  [[nodiscard]] WinId win_create(std::span<std::byte> local);

  // ---- one-sided operations (origin side) ----
  //
  // All require an open epoch covering `rank` (asserted) and return
  // kOutOfRange without issuing anything when [offset, offset+size) does
  // not fit the target's exposed buffer — the op never reaches the wire,
  // so a bad offset cannot corrupt remote memory.

  /// Write `data` into rank's window at `offset`.  At or below the rdv
  /// threshold the payload travels eagerly; above it a kRmaRts/kRmaCts
  /// handshake sets up a zero-copy RDMA landing.  Completion (remote
  /// application) is observed via flush/unlock/fence, never per-op.
  Status put(WinId win, unsigned rank, std::uint64_t offset,
             std::span<const std::byte> data);

  /// Read rank's window [offset, offset+out.size()) into `out`.  The
  /// reply is applied to `out` in engine context; flush (or unlock/fence)
  /// waits for it.  `out` must stay valid until then.
  Status get(WinId win, unsigned rank, std::uint64_t offset,
             std::span<std::byte> out);

  /// Element-wise read-modify-write of rank's window.  `data` holds
  /// size/8 elements of `type`; application is atomic per packet (engine
  /// context never interleaves inside the combine loop), so concurrent
  /// accumulates from any number of origins sum exactly.  Eager-only:
  /// kInvalidArgument above the rdv threshold or on misaligned
  /// offset/size.
  Status accumulate(WinId win, unsigned rank, std::uint64_t offset,
                    std::span<const std::byte> data, AccOp op, AccType type);

  // ---- completion fences ----

  /// Block until every op issued to `rank` on `win` before this call is
  /// remotely applied (puts/accumulates) or locally landed (gets).
  void flush(WinId win, unsigned rank);

  /// flush() towards every rank this origin has touched on `win`.
  void flush_all(WinId win);

  // ---- epochs ----

  /// Open a passive-target access epoch towards `rank` (shared; ops from
  /// other origins interleave freely).  The target does not participate.
  void lock(WinId win, unsigned rank);

  /// flush(win, rank), then close the epoch.
  void unlock(WinId win, unsigned rank);

  /// Collective toggle: open (odd calls) / flush_all + close (even
  /// calls), with a barrier separating epochs.  See the header comment.
  void fence(WinId win);

  /// App-driven progression: apply whatever RMA traffic is pending (one
  /// core progression round).  The PIOMan mode never needs this — that is
  /// the point — but the baseline target must call it or nothing lands.
  /// Returns true if anything happened.
  bool progress();

  // ---- observability ----

  struct Stats {
    std::uint64_t api_calls = 0;      // every public entry (passivity probe)
    std::uint64_t wins_created = 0;
    std::uint64_t epochs_opened = 0;  // fences opened + locks taken
    std::uint64_t epochs_closed = 0;
    std::uint64_t puts_issued = 0;    // origin side
    std::uint64_t puts_eager = 0;
    std::uint64_t puts_rdv = 0;
    std::uint64_t puts_applied = 0;   // target side (eager + rdv landings)
    std::uint64_t accs_issued = 0;
    std::uint64_t accs_applied = 0;
    std::uint64_t gets_issued = 0;
    std::uint64_t gets_served = 0;    // target side: replies sent
    std::uint64_t gets_completed = 0; // origin side: replies landed
    std::uint64_t flushes = 0;        // flush() calls (incl. via unlock/fence)
    std::uint64_t flush_reqs = 0;     // fence requests sent
    std::uint64_t flush_acks = 0;     // target side: acks sent
    std::uint64_t flush_acks_rx = 0;  // origin side: acks received
    std::uint64_t bytes_put = 0;
    std::uint64_t bytes_got = 0;
    std::uint64_t bytes_acc = 0;
    std::uint64_t dropped_out_of_range = 0;  // malformed wire ops dropped
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Peers with per-peer state on `win` (touched as origin or target).
  [[nodiscard]] std::size_t peer_slots(WinId win) const;

  /// Bind every counter above plus the in-flight gauges (ops_pending,
  /// fences_parked) under `prefix` (e.g. "node0/rma").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix);

  /// Attach this rank's causal-trace recorder (nullptr = tracing off).
  /// Each epoch becomes one "rma" trace: an rma.epoch root span with one
  /// rma.op child per put/get/accumulate/flush issued inside it.
  void set_tracing(pm2::tracing::Recorder* recorder) noexcept {
    trace_ = recorder;
  }

  // ---- RmaSink (engine-context target/origin reception) ----

  void on_rma_packet(unsigned src, const WireHeader& hdr,
                     std::span<const std::byte> payload) override;
  bool on_rdma_done(const net::RxEvent& ev) override;

 private:
  /// Origin-side bookkeeping towards one (window, peer) pair.
  struct PeerState {
    std::uint64_t issued = 0;        // puts + accumulates sent there
    std::uint64_t acked = 0;         // highest applied-count acked back
    std::uint64_t gets_pending = 0;  // gets awaiting their reply
    std::uint64_t rdv_inflight = 0;  // large puts not yet delivered
    std::uint64_t applied_from = 0;  // target side: ops applied from them
    std::uint32_t next_fence = 1;    // fence-request id cursor
    bool locked = false;             // open lock epoch towards this peer
  };

  /// A remote-completion fence that arrived before the ops it covers.
  struct ParkedFence {
    unsigned src = 0;
    std::uint64_t need = 0;
    std::uint32_t fence_id = 0;
  };

  struct Window {
    std::span<std::byte> local;
    std::vector<std::uint64_t> sizes;  // exposed bytes, indexed by rank
    // Per-peer state exists only for peers this rank has touched on the
    // window (as origin or target): `peers` in first-contact order (a
    // deque, so a PeerState& survives later contacts), slot_of[rank] its
    // position plus one (0 = untouched).
    std::deque<PeerState> peers;
    std::vector<std::uint32_t> slot_of;
    std::vector<ParkedFence> parked;
    bool fence_open = false;
    std::uint32_t next_seq = 1;  // op # for flight tagging (per window)
    // Causal trace of the current epoch on this origin (0 = tracing off
    // or no open epoch).  Lock epochs and fence epochs share these: the
    // epoch-style assertions keep at most one alive at a time per window
    // except concurrent lock(rank) epochs, which share one trace.
    std::uint64_t epoch_trace = 0;
    std::uint64_t epoch_span = 0;
    std::uint32_t epochs_live = 0;  // open locks + (fence_open ? 1 : 0)
  };

  /// Origin-side state of one outstanding get.
  struct PendingGet {
    WinId win = 0;
    unsigned rank = 0;
    std::span<std::byte> out;
    SimTime issued_at = 0;
    std::uint64_t span = 0;   // rma.op span (0 = untraced)
    std::uint64_t flight = 0; // flight record id (0 = off)
    std::uint32_t seq = 0;
  };

  /// Origin-side state of one rendezvous (large) put.
  struct RdvPut {
    WinId win = 0;
    unsigned rank = 0;
    std::span<const std::byte> data;
    SimTime issued_at = 0;
    std::uint64_t span = 0;
    std::uint32_t seq = 0;
    FlightRecord flight;
    bool flight_on = false;
  };

  /// Target-side state of one registered RDMA landing zone.
  struct RdvLanding {
    WinId win = 0;
    unsigned src = 0;
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
    SimTime wire_rx = 0;
    std::uint32_t seq = 0;
  };

  // -- origin-side helpers --
  Window& checked_window(WinId win);
  /// `rank`'s state on `w`, made on first contact.
  static PeerState& peer(Window& w, unsigned rank);
  /// True when a lock epoch towards `rank` is open (touches nothing).
  [[nodiscard]] static bool locked(const Window& w, unsigned rank);
  /// Epoch + bounds validation shared by put/get/accumulate.
  Status validate_op(Window& w, unsigned rank, std::uint64_t offset,
                     std::size_t size);
  void send_flush_req(WinId win, Window& w, unsigned rank);
  /// Wait for `done` (which must be re-evaluated after every suspension):
  /// Cond-based polling wait under PIOMan, progress+pacing loop otherwise.
  template <typename Pred>
  void wait_until(Pred done);

  // -- target-side appliers (engine context) --
  void apply_put(unsigned src, const WireHeader& hdr,
                 std::span<const std::byte> payload);
  void apply_acc(unsigned src, const WireHeader& hdr,
                 std::span<const std::byte> payload);
  void serve_get(unsigned src, const WireHeader& hdr);
  void handle_get_reply(const WireHeader& hdr,
                        std::span<const std::byte> payload);
  void handle_rts(unsigned src, const WireHeader& hdr);
  void handle_cts(unsigned src, const WireHeader& hdr);
  void handle_flush_req(unsigned src, const WireHeader& hdr);
  void handle_flush_ack(unsigned src, const WireHeader& hdr);
  /// One more op from `src` fully applied to `w`: advance the applied
  /// count and retire any parked fence it satisfies.
  void note_applied(WinId win, Window& w, unsigned src);

  // -- tracing / flight helpers (no-ops when disabled) --
  void epoch_open(WinId win, Window& w);
  void epoch_close(WinId win, Window& w);
  [[nodiscard]] std::uint64_t op_span_open(WinId win, const Window& w);
  void op_span_close(std::uint64_t span, WinId win);
  /// Origin-side flight record for an eager op (committed immediately).
  void flight_eager_send(unsigned rank, WinId win, std::uint32_t seq,
                         std::uint32_t bytes, SimTime posted, SimTime injected);
  /// Target-side flight record for one applied op.
  void flight_applied(unsigned src, WinId win, std::uint32_t seq,
                      std::uint32_t bytes, SimTime wire_rx, bool rdv);

  void charge(SimDuration d);
  void charge_copy(std::size_t bytes);

  Core& core_;
  coll::Engine& coll_;
  piom::Server* server_;            // null in app-driven mode
  std::optional<piom::Cond> cond_;  // wakes origin waits (PIOMan only)

  std::deque<Window> wins_;
  std::map<std::uint64_t, PendingGet> gets_;   // get id -> state
  std::map<std::uint64_t, RdvPut> rdv_puts_;   // rdv id -> state
  std::map<std::uint64_t, RdvLanding> landings_;  // RDMA handle -> state
  std::uint64_t next_get_ = 1;
  std::uint64_t next_rdv_ = 1;

  Stats stats_;
  pm2::tracing::Recorder* trace_ = nullptr;
};

}  // namespace pm2::nm::rma
