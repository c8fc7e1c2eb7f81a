// NewMadeleine core: tag-matched asynchronous message passing over the
// simulated fabric, with pluggable scheduling strategies and two
// progression modes (app-driven baseline vs PIOMan offload).
//
// Public API mirrors the calls in the paper's benchmarks (Fig. 4/7):
//   Request* s = core.isend(dst, tag, data);   // nm_isend
//   Request* r = core.irecv(src, tag, buffer); // nm_irecv
//   core.wait(s);                              // nm_swait / nm_rwait
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/intrusive_list.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/server.hpp"
#include "marcel/node.hpp"
#include "netsim/fabric.hpp"
#include "nmad/config.hpp"
#include "nmad/engine_lock.hpp"
#include "nmad/flight.hpp"
#include "nmad/matching/store.hpp"
#include "nmad/request.hpp"
#include "nmad/strategy.hpp"
#include "nmad/wire.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::nm {

class Reliability;

/// Connection state towards one peer node (all rails).
struct Gate {
  unsigned peer = 0;
  IntrusiveList<Request, &Request::hook> sendq;  // packs awaiting submission
  unsigned rr_rail = 0;                          // round-robin rail cursor

  /// Sharded-matching mode only: the posting ring.  isend pushes here
  /// without any lock; flush_gate moves the ring into sendq (a request
  /// leaves the ring before it joins sendq, so both share Request::hook)
  /// before running the strategy.  Several fibers may flush concurrently
  /// (pops are atomic between suspension points on the one host thread),
  /// which is what lets N submitting cores inject in parallel.
  IntrusiveList<Request, &Request::hook> ring;

  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;
};

/// Receiver-side hook for the one-sided RMA band (PacketKind::kRmaPut..
/// kRmaFlushAck).  Wire packets in that band bypass tag matching entirely:
/// deliver_packet hands them to the registered sink, which applies them in
/// engine context (a poll loop or PIOMan progress source — never a posted
/// recv).
/// Implemented by rma::Engine.
class RmaSink {
 public:
  virtual ~RmaSink() = default;

  /// One RMA-band packet arrived from node `src`.  `payload` is the
  /// bounds-checked inline body (empty for header-only kinds).  Runs in
  /// engine context on the polling CPU; may charge CPU time.
  virtual void on_rma_packet(unsigned src, const WireHeader& hdr,
                             std::span<const std::byte> payload) = 0;

  /// An RDMA completion arrived for a handle the core's rendezvous-recv
  /// table does not know.  Returns true if the sink owned it (an RMA
  /// large-put landing), false otherwise.
  virtual bool on_rdma_done(const net::RxEvent& ev) = 0;
};

class Core {
 public:
  /// `server` is null in ProgressMode::kAppDriven (the baseline).
  Core(marcel::Node& node, net::Fabric& fabric, piom::Server* server,
       Config cfg);
  ~Core();

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // ---------------- public messaging API ----------------

  /// Non-blocking tagged send to node `dst`.  `data` must remain valid
  /// until the request completes.  `dst == node_id()` uses the intra-node
  /// shared-memory channel.
  [[nodiscard]] Request* isend(unsigned dst, Tag tag,
                               std::span<const std::byte> data);

  /// Non-blocking tagged receive from node `src` into `buffer` (must be at
  /// least as large as the incoming message).
  [[nodiscard]] Request* irecv(unsigned src, Tag tag,
                               std::span<std::byte> buffer);

  /// Block until `req` completes, then recycle it (the pointer becomes
  /// invalid).  In PIOMan mode the wait flushes offloaded work first and
  /// participates in polling; in baseline mode it performs the whole
  /// progression itself.  Returns the received length (0 for a send).
  std::uint32_t wait(Request* req);

  /// Non-blocking completion check; on true the request is recycled and
  /// the pointer becomes invalid.
  [[nodiscard]] bool test(Request* req);

  /// Like wait() but bounded: returns kOk (request recycled) or kTimedOut
  /// after `timeout` of virtual time (request stays valid; wait again or
  /// keep testing).
  [[nodiscard]] Status wait_for(Request* req, SimDuration timeout);

  /// True if a matching message (eager or RTS) already arrived and is
  /// buffered — an irecv would complete without waiting.  Non-consuming.
  [[nodiscard]] bool probe(unsigned src, Tag tag) const;

  /// Payload size of the buffered message the next irecv(src, tag) would
  /// match, or nullopt when nothing is buffered.  Non-consuming; lets a
  /// dispatcher (the RPC engine) post an exactly-sized receive for a
  /// message it did not expect.
  [[nodiscard]] std::optional<std::uint32_t> probe_size(unsigned src,
                                                        Tag tag) const;

  /// Wire-arrival time of the buffered message the next irecv(src, tag)
  /// would match, or nullopt when nothing is buffered.  Non-consuming;
  /// lets the RPC dispatcher backdate a request's trace span to the
  /// instant the message actually hit the unexpected store.
  [[nodiscard]] std::optional<SimTime> probe_arrival(unsigned src,
                                                     Tag tag) const;

  /// Stage causal-trace lineage for the *next* request this thread posts
  /// (isend or irecv): the posted flight record carries (trace, span), so
  /// flight dumps can be joined against the causal tracer's spans.
  /// Consumed by exactly one post; harmless when flight recording is off.
  void set_next_trace(std::uint64_t trace, std::uint64_t span) noexcept {
    next_trace_id_ = trace;
    next_span_id_ = span;
  }

  /// Number of unexpected messages (eager or RTS) currently buffered on
  /// RPC-band tags (>= kRpcTagBase).  O(1); feeds the RPC engine's
  /// PIOMan work probe so idle cores keep polling while undispatched
  /// requests sit in the unexpected store.
  [[nodiscard]] std::size_t rpc_unexpected() const noexcept {
    return rpc_unexpected_;
  }

  /// Pop one (src, tag) for which an RPC-band message is buffered
  /// unexpected.  Entries are purged from the queue the moment an irecv
  /// claims the buffered message, so a popped entry always refers to a
  /// message still in the unexpected store — probe_size() is for sizing
  /// the receive, not for staleness re-validation.  nullopt when nothing
  /// is queued.
  [[nodiscard]] std::optional<std::pair<unsigned, Tag>> pop_rpc_pending();

  /// Engine context: when pop_rpc_pending() would return nullopt without
  /// spinning on a lock, report its lock traffic and return true;
  /// otherwise return false and report nothing.  The RPC engine's empty
  /// poll (piom::Server::Source::poll_empty).
  [[nodiscard]] bool pop_rpc_pending_empty();

  /// Attach a continuation to `req` instead of wait()ing on it: `fn` runs
  /// exactly once when the request completes — possibly immediately, if it
  /// already has — and the request is recycled right before `fn` executes
  /// (the pointer must not be used afterwards).  Completion contexts
  /// include poll fibers, tasklets and raw engine context (no current
  /// CPU), so `fn` must neither block nor charge CPU time; defer real work
  /// to a poll source.  This is the primitive the collective engine's
  /// schedule DAGs are driven by.
  void set_continuation(Request* req, Continuation fn);

  // ---------------- reserved tag bands ----------------

  /// Tags at or above this value are reserved for the collective engine;
  /// user-facing layers must stay below (see mpi::Comm::kUserTagLimit).
  static constexpr Tag kCollTagBase = 1u << 24;

  /// Tags at or above this value are reserved for the RPC service layer
  /// (pm2::RpcEngine): request, completion-signal and future control
  /// channels.  The collective band grows upward from kCollTagBase and
  /// must stay below this line (enforced in alloc_coll_tags).
  static constexpr Tag kRpcTagBase = 0xC0000000u;

  /// True for tags in the collective band [kCollTagBase, kRpcTagBase).
  /// The collective engine gives every matched (send, recv) pair its own
  /// tag (coll.hpp, "Tag discipline"), so such a flow never needs a
  /// sequence cursor: both sides use seq 0 and Shard::flows stays
  /// untouched, keeping matching state bounded by what is in flight
  /// rather than by the number of collectives ever run.  irecv asserts
  /// the one-pair contract instead of trusting it.
  [[nodiscard]] static constexpr bool coll_seq_free(Tag tag) noexcept {
    return tag >= kCollTagBase && tag < kRpcTagBase;
  }

  /// Reserve `count` consecutive tags from the collective band.  Every
  /// rank allocates blocks in the same order with the same sizes (MPI
  /// collective-ordering semantics), so the cursors advance in lockstep
  /// across the world.  Asserts instead of wrapping: silent reuse of live
  /// tags once the band is exhausted would corrupt matching.
  [[nodiscard]] Tag alloc_coll_tags(std::uint32_t count);

  /// Tags consumed from the collective band so far (wrap-guard telemetry).
  [[nodiscard]] std::uint64_t coll_tags_used() const noexcept {
    return coll_tag_cursor_;
  }

  /// One progression round: drain NIC events, advance protocol state.
  /// Returns true if anything happened.  Exposed for PIOMan's progress
  /// source and for baseline wait loops.
  bool progress(marcel::Cpu& cpu);

  /// The app-driven wait loop every baseline wait shares: until `done()`
  /// holds, the calling thread runs one `poll(cpu)` round itself and,
  /// after a round that made no progress, busy-waits app_poll_gap before
  /// the next one.  In app-driven mode the busy-wait parks in
  /// Cpu::spin_wait(), so a run of empty rounds costs no events; NIC
  /// arrivals, completions and sibling fibers wake it (docs/concurrency.md
  /// §6).  Returns false once `deadline` has passed — checked before each
  /// round, so a timeout lands on the first round boundary at or after it.
  template <typename Done, typename Poll>
  bool poll_until(Done&& done, Poll&& poll,
                  SimTime deadline = kSimTimeNever) {
    while (!done()) {
      if (fabric_.engine().now() >= deadline) return false;
      const bool progressed = poll(marcel::this_thread::cpu());
      if (done() || progressed || cfg_.app_poll_gap == 0) continue;
      if (server_ != nullptr) {
        // PIOMan has wake sources of its own (sources, interrupts): step.
        marcel::this_thread::compute(cfg_.app_poll_gap);
      } else {
        marcel::this_thread::cpu().spin_wait(cfg_.app_poll_gap, deadline);
      }
    }
    return true;
  }

  // ---------------- introspection ----------------

  [[nodiscard]] unsigned node_id() const noexcept { return node_.index(); }
  [[nodiscard]] marcel::Node& node() noexcept { return node_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] piom::Server* server() noexcept { return server_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] unsigned rails() const noexcept { return fabric_.rails(); }

  /// True when matching runs on the sharded store (Config::match_shards).
  [[nodiscard]] bool sharded() const noexcept {
    return cfg_.match_shards > 0;
  }

  /// The sharded matching store (single shard in legacy mode); exposed so
  /// tests can verify the per-shard conservation laws directly.
  [[nodiscard]] const matching::Store& match_store() const noexcept {
    return match_;
  }

  /// The rail this core's submissions should use: with per-core endpoints
  /// every virtual core owns one NIC endpoint (its own rail); otherwise
  /// rail 0, the paper's shared per-node NIC (strategies that round-robin
  /// keep doing so).
  [[nodiscard]] unsigned preferred_rail() const noexcept;

  /// Test hook: place the send AND receive sequence cursors of the
  /// (peer, tag) flow at `next`, so the 32-bit wire-Seq wrap boundary is
  /// reachable without 2^32 real messages.
  void debug_seed_seq(unsigned peer, Tag tag, std::uint64_t next) {
    match_.shard_for(peer, tag).seed_seq(peer, tag, next);
  }

  /// Requests ever allocated (the pool's high-water mark) and those not
  /// back on the freelist; exported as nodeN/nm/requests/{pooled,live}.
  [[nodiscard]] std::size_t requests_pooled() const noexcept {
    return pool_.size();
  }
  [[nodiscard]] std::size_t requests_live() const noexcept {
    return pool_.size() - freelist_.size();
  }

  /// Gates created so far: one per peer this core has isend'ed to.  Control
  /// packets (CTS, RMA, acks) go through send_packet and make none
  /// (exported as nodeN/nm/gates).
  [[nodiscard]] std::size_t gates_created() const noexcept {
    return gates_.size();
  }

  /// The reliable-delivery sublayer, or nullptr when Config::reliable is
  /// off (the paper's lossless fast path).
  [[nodiscard]] const Reliability* reliability() const noexcept {
    return reliable_.get();
  }

  struct Stats {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t eager_sends = 0;
    std::uint64_t rdv_sends = 0;
    std::uint64_t expected_eager = 0;    // matched on arrival (single copy)
    std::uint64_t unexpected_eager = 0;  // buffered (double copy)
    std::uint64_t unexpected_rts = 0;
    std::uint64_t wire_packets = 0;
    std::uint64_t aggregated_msgs = 0;  // messages that shared a packet
    std::uint64_t dropped_malformed = 0;  // truncated/garbled, dropped
    std::uint64_t pack_msgs = 0;      // Madeleine pack/unpack messages
    std::uint64_t pack_segments = 0;  // segments gathered/scattered
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Post-to-completion latency (µs) count/mean/max, by operation kind.
  [[nodiscard]] const SumStats& send_latency_us() const noexcept {
    return send_lat_;
  }
  [[nodiscard]] const SumStats& recv_latency_us() const noexcept {
    return recv_lat_;
  }

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/nm").  The registry reads through the bound pointers at export
  /// time; nothing changes on the hot path.
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

  /// Attach a flight recorder: every request acquired from now on carries
  /// stage timestamps and is committed to the ring on release.  nullptr
  /// turns recording off (the per-request cost drops to one branch).
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    flight_ = recorder;
  }
  [[nodiscard]] FlightRecorder* flight_recorder() noexcept { return flight_; }

  /// Reliability-sublayer hook: a sequenced packet for (peer, tag, seq)
  /// went out again; charge the retransmit to the matching flight record.
  void note_retransmit(unsigned peer, Tag tag, Seq seq) noexcept {
    if (flight_ != nullptr) flight_->note_retransmit(peer, tag, seq);
  }

  /// Madeleine-layer hook: one pack/unpack message of `segments` pieces.
  void note_pack(std::size_t segments) noexcept {
    ++stats_.pack_msgs;
    stats_.pack_segments += segments;
  }

  // ---------------- one-sided RMA hooks ----------------

  /// Register (or detach, with nullptr) the sink that owns the RMA wire
  /// band.  RMA packets arriving with no sink are counted as malformed
  /// and dropped.
  void set_rma_sink(RmaSink* sink) noexcept { rma_sink_ = sink; }

  /// Submit one sealed RMA-band packet towards `dst` on this core's
  /// preferred rail, through the reliability sublayer when enabled.  The
  /// RMA engine builds its own headers; this is its injection door past
  /// the tag-matching send path.
  void rma_send(unsigned dst, std::vector<std::byte>&& pkt);

  // ---------------- strategy-facing helpers ----------------

  /// Build one wire packet from `reqs` (one kEager, or one kAggregate if
  /// several), inject it on `rail`, and complete the send requests.
  void inject_eager_batch(Gate& gate, unsigned rail,
                          std::span<Request* const> reqs);

  /// Submit a rendezvous RTS for `req` on `rail`.
  void inject_rts(Gate& gate, unsigned rail, Request& req);

 private:
  using MatchKey = matching::MatchKey;  // (src, tag, seq)

  // Rendezvous bookkeeping, kept out of Request: a send stays in the table
  // from its RTS until the last RDMA stripe lands (parts_left == 0 until
  // the CTS), a receive from its CTS until all bytes arrived.
  struct RdvSend {
    Request* req = nullptr;
    unsigned parts_left = 0;  // multirail stripes not yet landed
  };
  struct RdvRecv {
    Request* req = nullptr;
    std::size_t expected = 0;  // total bytes the RTS announced
  };
  using RdvSends = std::map<std::uint64_t, RdvSend>;

  Request* acquire();
  void release(Request* req);
  /// The body of wait() and wait_for(): kOk once `req` completed (it is not
  /// recycled yet), kTimedOut once virtual time reached `deadline`.
  Status wait_until(Request* req, SimTime deadline);
  void complete(Request& req);

  /// The gate towards `peer`, created on first contact.
  Gate& gate_for(unsigned peer);

  /// Stage a queued eager send: gate sendq in legacy mode, the lock-free
  /// posting ring in sharded mode.
  void enqueue_send(Gate& gate, Request& req);

  void flush_gate(Gate& gate);

  /// Route one outgoing wire packet: through the reliability sublayer when
  /// enabled (and the destination is remote), straight to the NIC otherwise.
  void send_packet(unsigned dst, unsigned rail, std::vector<std::byte>&& pkt);

  /// True when a packet or RDMA completion waits on any rail.
  [[nodiscard]] bool rx_pending() const;
  /// Engine context: progress()'s empty poll (Source::poll_empty).
  bool progress_empty();

  void handle_event(net::RxEvent ev);
  void deliver_packet(unsigned src, std::span<const std::byte> pkt);
  void handle_eager(unsigned src, const WireHeader& hdr,
                    std::span<const std::byte> payload);
  void handle_rts(unsigned src, const WireHeader& hdr);
  void handle_cts(const WireHeader& hdr);
  void handle_rdma_done(const net::RxEvent& ev);
  void start_rdv_recv(Request& req, unsigned src, std::uint64_t rdv,
                      std::uint32_t size, SimTime wire_rx = 0);
  void send_rdv_data(RdvSends::iterator it, std::uint64_t handle);

  /// Charge CPU time to the calling fiber's core.
  void charge(SimDuration d);
  void charge_copy(std::size_t bytes);

  // ---- flight-recorder / tracer plumbing (all no-ops when disabled) ----

  /// The request's open flight record, or nullptr when it is not recorded.
  [[nodiscard]] FlightRecord* flight_of(const Request& req) noexcept {
    return req.slot < flights_.size() && flights_[req.slot].id != 0
               ? &flights_[req.slot]
               : nullptr;
  }
  /// Start a flight record for a freshly posted request.
  void flight_init(Request& req, std::uint32_t bytes, SimTime posted_at);
  void flight_stamp(Request& req, Stage s);
  /// Record who executes the (possibly offloaded) submission/delivery.
  void flight_exec(Request& req);
  /// Emit a protocol span [start, now] on the executing CPU's trace track;
  /// returns the midpoint for flow-event anchoring (0 if not traced).
  SimTime trace_span(const char* name, SimTime start);
  /// Emit a flow arrow endpoint at `at` on the executing CPU's track.
  void trace_flow(const char* name, SimTime at, std::uint64_t id, bool begin);

  marcel::Node& node_;
  net::Fabric& fabric_;
  piom::Server* server_;
  Config cfg_;
  // Modeled library-wide lock (Config::engine_lock); null when disabled
  // and in sharded mode, where the per-shard light locks replace it.
  // Profiled as "node<i>/locks/engine".
  std::unique_ptr<EngineLock> elock_;
  std::unique_ptr<Strategy> strategy_;
  std::unique_ptr<Reliability> reliable_;
  // Gates in first-contact order; gate_index_[peer] is the peer's position
  // plus one (0 = never contacted), so per-peer cost stays 4 bytes until a
  // message is actually sent there.
  std::deque<Gate> gates_;
  std::vector<std::uint32_t> gate_index_;

  // Matching state (flows, posted recvs, unexpected messages, pending RPC
  // dispatch): one shard in legacy mode, Config::match_shards otherwise.
  matching::Store match_;
  RdvSends rdv_sends_;                           // rdv id -> send
  std::map<std::uint64_t, RdvRecv> rdma_recvs_;  // RDMA handle -> recv
  std::uint64_t next_rdv_ = 1;
  std::uint64_t coll_tag_cursor_ = 0;  // next unused offset into the band
  std::size_t rpc_unexpected_ = 0;     // buffered unexpecteds on rpc band

  int source_id_ = 0;  // PIOMan progress source

  std::deque<Request> pool_;  // Request::slot indexes it
  std::vector<Request*> freelist_;
  RmaSink* rma_sink_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  // Open flight records by Request::slot (id 0 = not recording); grown
  // only while a recorder is attached.
  std::vector<FlightRecord> flights_;
  // Causal lineage staged by set_next_trace() for the next posted request.
  std::uint64_t next_trace_id_ = 0;
  std::uint64_t next_span_id_ = 0;
  Stats stats_;
  SumStats send_lat_;
  SumStats recv_lat_;
};

}  // namespace pm2::nm
