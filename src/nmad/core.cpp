#include "nmad/core.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"
#include "marcel/lock_profile.hpp"
#include "marcel/runtime.hpp"
#include "nmad/reliable.hpp"
#include "sim/flow_id.hpp"
#include "sim/trace.hpp"

namespace pm2::nm {
namespace {

/// Identity of one message crossing the wire, shared by the sender's
/// injection span and the receiver's delivery span (FNV-1a so distinct
/// messages practically never collide).  Namespaced under FlowClass::kWire
/// so a hash can never land on an id another subsystem minted.
std::uint64_t wire_flow_id(unsigned src, unsigned dst, Tag tag,
                           Seq seq) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(src);
  mix(dst);
  mix(tag);
  mix(seq);
  return sim::flow_id(sim::FlowClass::kWire, h);
}

/// Identity of one offloaded submission (isend → tasklet pickup),
/// namespaced under FlowClass::kOffload: 16 node bits + 40 flight-id bits
/// inside the class's 56-bit space.
std::uint64_t offload_flow_id(const FlightRecord& f) noexcept {
  const std::uint64_t low = (static_cast<std::uint64_t>(f.node) << 40) |
                            (f.id & ((std::uint64_t{1} << 40) - 1));
  return sim::flow_id(sim::FlowClass::kOffload, low);
}

}  // namespace

Core::Core(marcel::Node& node, net::Fabric& fabric, piom::Server* server,
           Config cfg)
    : node_(node),
      fabric_(fabric),
      server_(server),
      cfg_(cfg),
      strategy_(make_strategy(cfg_.strategy, cfg_)),
      match_(node.index(), cfg_.match_shards > 0 ? cfg_.match_shards : 1,
             cfg_.tag_band_shift, cfg_.engine_lock_spin,
             /*model_locks=*/cfg_.match_shards > 0) {
  PM2_ASSERT((server_ != nullptr) == (cfg_.mode == ProgressMode::kPioman));
  if (cfg_.engine_lock && cfg_.match_shards == 0) {
    // Sharded matching replaces the library-wide lock with the per-shard
    // light locks; the big lock exists only on the legacy single path.
    elock_ = std::make_unique<EngineLock>(cfg_.engine_lock_spin);
    lock_profile::register_site(
        elock_.get(),
        "node" + std::to_string(node_.index()) + "/locks/engine");
  }
  if (cfg_.reliable) reliable_ = std::make_unique<Reliability>(*this, cfg_);
  gate_index_.assign(fabric_.nodes(), 0);
  if (server_ != nullptr) {
    // Idle cores keep polling while packets sit in a local NIC queue even
    // if no local request is armed yet (unexpected-message processing).
    source_id_ = server_->add_source({
        .name = "nm",
        .poll = [this](marcel::Cpu& cpu) { return progress(cpu); },
        .has_work = [this] { return rx_pending(); },
        .quiet = [this] { return progress_quiet(); },
        .poll_empty = [this](std::uint64_t n) { progress_empty(n); },
    });
    for (unsigned r = 0; r < fabric_.rails(); ++r) {
      fabric_.nic(node_id(), r).set_rx_notify([this] {
        server_->notify_work();
      });
    }
    server_->set_block_support({
        .enable_interrupts =
            [this] {
              for (unsigned r = 0; r < fabric_.rails(); ++r) {
                fabric_.nic(node_id(), r).arm_interrupts([this] {
                  server_->on_interrupt();
                });
              }
            },
        .disable_interrupts =
            [this] {
              for (unsigned r = 0; r < fabric_.rails(); ++r) {
                fabric_.nic(node_id(), r).disarm_interrupts();
              }
            },
    });
  } else {
    // App-driven waits park between empty polls; an arrival wakes them.
    for (unsigned r = 0; r < fabric_.rails(); ++r) {
      fabric_.nic(node_id(), r).set_rx_notify([this] {
        node_.wake_spinners();
      });
    }
  }
}

Core::~Core() {
  if (elock_ != nullptr) lock_profile::unregister_site(elock_.get());
  if (server_ != nullptr) {
    server_->remove_source(source_id_);
  }
}

// -------------------------------------------------------- request recycling

Request* Core::acquire() {
  Request* req;
  if (!freelist_.empty()) {
    req = freelist_.back();
    freelist_.pop_back();
  } else {
    req = &pool_.emplace_back(server_);
    req->slot = static_cast<std::uint32_t>(pool_.size() - 1);
  }
  req->state = Request::State::kQueued;
  req->send_data = {};
  req->received_len = 0;
  req->critical = false;
  req->done = false;
  req->on_complete = {};
  req->cond.reset();
  return req;
}

void Core::release(Request* req) {
  PM2_ASSERT(req != nullptr && req->done);
  PM2_ASSERT_MSG(!req->hook.is_linked(), "releasing a queued request");
  if (FlightRecord* f = flight_of(*req)) {
    if (flight_ != nullptr) {
      if (req->op == Request::Op::kRecv) f->bytes = req->received_len;
      flight_->commit(*f);
    }
    f->id = 0;  // a free request never carries an open record
  }
  req->state = Request::State::kFree;
  freelist_.push_back(req);
}

Gate& Core::gate_for(unsigned peer) {
  std::uint32_t& index = gate_index_[peer];
  if (index == 0) {
    gates_.emplace_back().peer = peer;
    index = static_cast<std::uint32_t>(gates_.size());
  }
  return gates_[index - 1];
}

void Core::complete(Request& req) {
  PM2_ASSERT(!req.done);
  flight_stamp(req, Stage::kCompleted);
  req.state = Request::State::kCompleted;
  req.done = true;
  const double latency = to_us(fabric_.engine().now() - req.issued_at);
  (req.op == Request::Op::kSend ? send_lat_ : recv_lat_).add(latency);
  node_.wake_spinners();  // e.g. an RDMA completion in engine context
  req.cond.signal();
  if (server_ != nullptr) {
    if (req.critical) {
      req.critical = false;
      server_->disarm_critical();
    }
    server_->disarm();
  }
  if (req.on_complete) {
    // Continuation-driven request (collective engine): nobody will wait(),
    // so recycle here, then run the continuation.  Every complete() call
    // site is done touching the request at this point, and releasing first
    // lets the continuation's own isend/irecv reuse the slot.
    const Continuation fn = req.on_complete;
    req.on_complete = {};
    release(&req);
    fn();
  }
}

// ------------------------------------------------------------- public API

Request* Core::isend(unsigned dst, Tag tag, std::span<const std::byte> data) {
  PM2_ASSERT(dst < fabric_.nodes());
  const SimTime t0 = fabric_.engine().now();
  marcel::EngineScope es;
  EngineLockGuard lg(elock_.get());
  charge(cfg_.post_cost);
  Request* req = acquire();
  req->op = Request::Op::kSend;
  req->peer = dst;
  req->tag = tag;
  {
    // Sequence allocation is the only shared-matching-state touch on the
    // send path; the shard guard (free in legacy mode, where the engine
    // lock above already covers it) closes it.  No suspension point sits
    // between the allocation and the table update inside next_send_seq.
    // A collective-band tag carries one matched pair, so it needs no
    // cursor (see coll_seq_free).
    matching::Shard& sh = match_.shard_for(dst, tag);
    EngineLockGuard sg(sh.lock.get());
    req->seq = coll_seq_free(tag) ? 0 : sh.next_send_seq(dst, tag);
  }
  req->send_data = data;
  req->state = Request::State::kQueued;
  req->issued_at = fabric_.engine().now();
  flight_init(*req, static_cast<std::uint32_t>(data.size()), t0);
  ++stats_.sends;

  Gate& gate = gate_for(dst);
  bool offload_posted = false;
  if (server_ != nullptr && data.size() > cfg_.rdv_threshold) {
    // Rendezvous: the RTS is a header-only packet, cheap to submit, and
    // the handshake needs reactivity (§3.2 "it submits the corresponding
    // requests to PIOMan in order to ensure the progression") — send it
    // right away instead of deferring it with the expensive eager copies.
    server_->arm();
    unsigned rail;
    if (cfg_.per_core_endpoints) {
      rail = preferred_rail();
    } else {
      rail = gate.rr_rail;
      gate.rr_rail = (gate.rr_rail + 1) % rails();
    }
    inject_rts(gate, rail, *req);
  } else {
    enqueue_send(gate, *req);
    flight_stamp(*req, Stage::kEnqueued);
    if (server_ != nullptr) {
      server_->arm();
      if (data.size() < cfg_.offload_min_bytes) {
        // Adaptive strategy (§5 future work): for tiny messages the inline
        // injection is cheaper than the offload machinery.
        flush_gate(gate);
      } else {
        // §2.2: register the request, raise an event; the submission (the
        // expensive copy) happens on whichever core PIOMan picks.
        flight_stamp(*req, Stage::kOffloadPosted);
        offload_posted = true;
        server_->post([this, &gate] { flush_gate(gate); });
      }
    } else {
      // Classical engine: the communicating thread submits right here, which
      // is why "even a non-blocking send may take several dozens of µs".
      flush_gate(gate);
    }
  }
  const SimTime mid = trace_span("nm:isend", t0);
  if (const FlightRecord* f = flight_of(*req); offload_posted && f) {
    trace_flow("offload", mid, offload_flow_id(*f), /*begin=*/true);
  }
  return req;
}

Request* Core::irecv(unsigned src, Tag tag, std::span<std::byte> buffer) {
  PM2_ASSERT(src < fabric_.nodes());
  const SimTime t0 = fabric_.engine().now();
  marcel::EngineScope es;
  EngineLockGuard lg(elock_.get());
  charge(cfg_.post_cost);
  Request* req = acquire();
  req->op = Request::Op::kRecv;
  req->peer = src;
  req->tag = tag;
  // The shard guard (free in legacy mode) covers sequence allocation AND
  // the match attempt below: nothing may slip between the cursor bump and
  // the table lookup keyed on it.
  matching::Shard& sh = match_.shard_for(src, tag);
  EngineLockGuard sg(sh.lock.get());
  req->seq = coll_seq_free(tag) ? 0 : sh.next_recv_seq(src, tag);
  ++sh.stats.recvs_posted;
  req->recv_buf = buffer;
  req->state = Request::State::kPosted;
  req->issued_at = fabric_.engine().now();
  flight_init(*req, static_cast<std::uint32_t>(buffer.size()), t0);
  ++stats_.recvs;
  if (server_ != nullptr) {
    server_->arm();
    if (buffer.size() > cfg_.rdv_threshold) {
      // A rendezvous is (very likely) inbound: the RTS must be answered
      // promptly even if every core is computing — blocking-LWP material.
      req->critical = true;
      server_->arm_critical();
    }
  }

  const MatchKey key{src, tag, req->seq};
  if (auto it = sh.unexpected.find(key); it != sh.unexpected.end()) {
    // The message already arrived and sits in the unexpected buffer:
    // second copy into the application buffer (§2.2 receive path).
    const auto& payload = it->second.payload;
    PM2_ASSERT_MSG(payload.size() <= buffer.size(),
                   "receive buffer too small");
    if (FlightRecord* f = flight_of(*req)) {
      f->stamp(Stage::kWireRx, it->second.arrived_at);
      f->stamp(Stage::kMatched, fabric_.engine().now());
    }
    flight_exec(*req);  // the posting thread does the second copy itself
    charge_copy(payload.size());
    std::memcpy(buffer.data(), payload.data(), payload.size());
    req->received_len = static_cast<std::uint32_t>(payload.size());
    sh.unexpected.erase(it);
    ++sh.stats.recvs_matched;
    ++sh.stats.buffered_claimed;
    if (tag >= kRpcTagBase) {
      --rpc_unexpected_;
      // Purge the pending-dispatch entry at match time so the RPC pump
      // never pops a (src, tag) whose message is already gone.
      sh.purge_rpc_pending(src, tag);
    }
    complete(*req);
    trace_span("nm:irecv", t0);
    return req;
  }
  if (auto it = sh.unexpected_rts.find(key); it != sh.unexpected_rts.end()) {
    const matching::UnexpectedRts rts = it->second;
    sh.unexpected_rts.erase(it);
    ++sh.stats.recvs_matched;
    ++sh.stats.buffered_claimed;
    if (tag >= kRpcTagBase) {
      --rpc_unexpected_;
      sh.purge_rpc_pending(src, tag);
    }
    start_rdv_recv(*req, src, rts.rdv, rts.size, rts.arrived_at);
    trace_span("nm:irecv", t0);
    return req;
  }
  const bool fresh = sh.posted.emplace(key, req).second;
  PM2_ASSERT_MSG(fresh,
                 "two posted receives share one (src, tag, seq) — a "
                 "collective-band tag carries exactly one matched pair");
  trace_span("nm:irecv", t0);
  return req;
}

Status Core::wait_until(Request* req, SimTime deadline) {
  PM2_ASSERT(req != nullptr && req->state != Request::State::kFree);
  marcel::EngineScope es;  // time inside a wait is communication time
  flight_stamp(*req, Stage::kWaitEnter);
  const bool done =
      server_ != nullptr
          ? req->cond.wait_until(deadline) == Status::kOk
          // App-driven progression: this thread does all the work.
          : poll_until([req] { return req->done; },
                       [this](marcel::Cpu& cpu) { return progress(cpu); },
                       deadline);
  if (!done) return Status::kTimedOut;
  flight_stamp(*req, Stage::kWoken);
  return Status::kOk;
}

std::uint32_t Core::wait(Request* req) {
  (void)wait_until(req, kSimTimeNever);  // no deadline: always kOk
  const std::uint32_t len = req->received_len;
  release(req);
  return len;
}

bool Core::test(Request* req) {
  PM2_ASSERT(req != nullptr && req->state != Request::State::kFree);
  marcel::EngineScope es;
  if (!req->done) {
    if (server_ != nullptr) {
      server_->progress_once();
    } else {
      progress(marcel::this_thread::cpu());
    }
  }
  if (req->done) {
    release(req);
    return true;
  }
  return false;
}

Status Core::wait_for(Request* req, SimDuration timeout) {
  const Status st = wait_until(req, fabric_.engine().now() + timeout);
  if (st == Status::kOk) release(req);
  return st;
}

void Core::set_continuation(Request* req, Continuation fn) {
  PM2_ASSERT(req != nullptr && fn);
  PM2_ASSERT_MSG(req->state != Request::State::kFree,
                 "continuation on a recycled request");
  if (req->done) {
    // Completed inline (unexpected eager match, tiny inline-flushed send)
    // before the continuation could be attached: fire it now.
    release(req);
    fn();
    return;
  }
  req->on_complete = fn;
}

Tag Core::alloc_coll_tags(std::uint32_t count) {
  PM2_ASSERT(count > 0);
  const std::uint64_t base = kCollTagBase + coll_tag_cursor_;
  PM2_ASSERT_MSG(base + count <= kRpcTagBase,
                 "collective tag band exhausted (growth would collide with "
                 "the reserved RPC band at kRpcTagBase)");
  coll_tag_cursor_ += count;
  return static_cast<Tag>(base);
}

bool Core::probe(unsigned src, Tag tag) const {
  EngineLockGuard lg(elock_.get());
  // A message the *next* irecv(src, tag) would match: the flow's next
  // receive sequence number, already sitting in an unexpected buffer.
  const matching::Shard& sh = match_.shard_for(src, tag);
  EngineLockGuard sg(sh.lock.get());
  const MatchKey key{src, tag, sh.peek_recv_seq(src, tag)};
  return sh.unexpected.contains(key) || sh.unexpected_rts.contains(key);
}

std::optional<std::pair<unsigned, Tag>> Core::pop_rpc_pending() {
  EngineLockGuard lg(elock_.get());
  return match_.pop_rpc_pending();
}

std::optional<std::uint32_t> Core::probe_size(unsigned src, Tag tag) const {
  EngineLockGuard lg(elock_.get());
  const matching::Shard& sh = match_.shard_for(src, tag);
  EngineLockGuard sg(sh.lock.get());
  const MatchKey key{src, tag, sh.peek_recv_seq(src, tag)};
  if (auto it = sh.unexpected.find(key); it != sh.unexpected.end()) {
    return static_cast<std::uint32_t>(it->second.payload.size());
  }
  if (auto it = sh.unexpected_rts.find(key); it != sh.unexpected_rts.end()) {
    return it->second.size;
  }
  return std::nullopt;
}

std::optional<SimTime> Core::probe_arrival(unsigned src, Tag tag) const {
  EngineLockGuard lg(elock_.get());
  const matching::Shard& sh = match_.shard_for(src, tag);
  EngineLockGuard sg(sh.lock.get());
  const MatchKey key{src, tag, sh.peek_recv_seq(src, tag)};
  if (auto it = sh.unexpected.find(key); it != sh.unexpected.end()) {
    return it->second.arrived_at;
  }
  if (auto it = sh.unexpected_rts.find(key); it != sh.unexpected_rts.end()) {
    return it->second.arrived_at;
  }
  return std::nullopt;
}

unsigned Core::preferred_rail() const noexcept {
  if (!cfg_.per_core_endpoints) return 0;
  const marcel::Cpu* cpu = marcel::detail::current_cpu();
  return cpu != nullptr ? cpu->index() % fabric_.rails() : 0;
}

bool Core::progress(marcel::Cpu& cpu) {
  marcel::EngineScope es;
  EngineLockGuard lg(elock_.get());
  bool any = false;
  const unsigned nrails = fabric_.rails();
  // Per-core endpoints: start at this core's own rail so each polling
  // core drains its own endpoint first and concurrent pollers spread the
  // receive work instead of all charging for rail 0's events; the full
  // sweep still covers every rail (liveness when cores sleep).
  const unsigned start =
      cfg_.per_core_endpoints ? cpu.index() % nrails : 0;
  for (unsigned i = 0; i < nrails; ++i) {
    const unsigned r = (start + i) % nrails;
    net::Nic& nic = fabric_.nic(node_id(), r);
    while (auto ev = nic.poll()) {
      handle_event(std::move(*ev));
      any = true;
    }
  }
  return any;
}

bool Core::rx_pending() const {
  for (unsigned r = 0; r < fabric_.rails(); ++r) {
    if (fabric_.nic(node_id(), r).rx_pending()) return true;
  }
  return false;
}

bool Core::progress_quiet() const {
  return !rx_pending() && (elock_ == nullptr || elock_->free());
}

void Core::progress_empty(std::uint64_t n) {
  // progress() with every rail empty and the engine lock free: take and
  // drop the lock, find nothing.
  if (elock_ != nullptr) elock_->note_idle(n);
}

bool Core::pop_rpc_pending_quiet() const {
  return (elock_ == nullptr || elock_->free()) && match_.rpc_pending_idle();
}

void Core::pop_rpc_pending_empty(std::uint64_t n) {
  if (elock_ != nullptr) elock_->note_idle(n);
  match_.note_empty_rpc_pops(n);
}

// ------------------------------------------------------------ submission

void Core::enqueue_send(Gate& gate, Request& req) {
  if (sharded()) {
    // Lock-free submission: the posting thread never serializes on a
    // queue lock.  Whoever flushes next (possibly this thread, right
    // after) drains the ring.
    gate.ring.push_back(req);
  } else {
    gate.sendq.push_back(req);
  }
}

void Core::flush_gate(Gate& gate) {
  marcel::EngineScope es;
  EngineLockGuard lg(elock_.get());
  if (sharded()) {
    // Drain the posting ring into the staging queue, then let the
    // strategy inject.  Several fibers may be here at once — ring pops
    // and sendq pops are atomic between suspension points, so concurrent
    // flushers split the queue and inject in parallel on their own
    // preferred rails (this, not the ring itself, is where the sharded
    // mode's injection concurrency comes from).  Loop until both are
    // empty: a push that lands while we are suspended inside the
    // strategy is picked up by the next iteration, and the final
    // drain → empty-check → return sequence has no suspension point in
    // it, so no message can be stranded.
    while (true) {
      while (Request* r = gate.ring.pop_front()) gate.sendq.push_back(*r);
      if (gate.sendq.empty()) return;
      strategy_->flush(*this, gate);
    }
  }
  if (gate.sendq.empty()) return;  // a previous flush already drained it
  strategy_->flush(*this, gate);
}

void Core::inject_eager_batch(Gate& gate, unsigned rail,
                              std::span<Request* const> reqs) {
  PM2_ASSERT(!reqs.empty());
  const SimTime t0 = fabric_.engine().now();
  for (Request* r : reqs) {
    flight_stamp(*r, Stage::kPickup);
    flight_exec(*r);
  }
  std::vector<std::byte> pkt;
  if (reqs.size() == 1) {
    Request& r = *reqs[0];
    WireHeader hdr;
    hdr.kind = static_cast<std::uint8_t>(PacketKind::kEager);
    hdr.tag = r.tag;
    hdr.seq = r.seq;
    hdr.size = static_cast<std::uint32_t>(r.send_data.size());
    pkt.reserve(sizeof hdr + r.send_data.size());
    append_header(pkt, hdr);
    append_payload(pkt, r.send_data);
  } else {
    WireHeader outer;
    outer.kind = static_cast<std::uint8_t>(PacketKind::kAggregate);
    outer.count = static_cast<std::uint16_t>(reqs.size());
    append_header(pkt, outer);
    for (Request* r : reqs) {
      WireHeader sub;
      sub.kind = static_cast<std::uint8_t>(PacketKind::kEager);
      sub.tag = r->tag;
      sub.seq = r->seq;
      sub.size = static_cast<std::uint32_t>(r->send_data.size());
      append_header(pkt, sub);
      append_payload(pkt, r->send_data);
    }
    stats_.aggregated_msgs += reqs.size();
  }
  ++stats_.wire_packets;
  stats_.eager_sends += reqs.size();
  send_packet(gate.peer, rail, std::move(pkt));
  for (Request* r : reqs) flight_stamp(*r, Stage::kInjected);
  const SimTime mid = trace_span("nm:inject", t0);
  if (mid != 0) {
    for (Request* r : reqs) {
      const FlightRecord* f = flight_of(*r);
      if (f == nullptr) continue;
      // Close the offload arrow from the isend that posted this work, and
      // open the wire arrow towards the receiver's delivery span.
      if (f->at(Stage::kOffloadPosted) != 0) {
        trace_flow("offload", mid, offload_flow_id(*f), /*begin=*/false);
      }
      trace_flow("wire", mid, wire_flow_id(node_id(), gate.peer, r->tag,
                                           r->seq),
                 /*begin=*/true);
    }
  }
  // Buffered-send semantics: the payload now lives in registered memory /
  // on the wire, so the requests complete.
  for (Request* r : reqs) complete(*r);
}

void Core::inject_rts(Gate& gate, unsigned rail, Request& req) {
  const SimTime t0 = fabric_.engine().now();
  if (FlightRecord* f = flight_of(req)) f->rdv = true;
  flight_stamp(req, Stage::kEnqueued);
  req.state = Request::State::kRdvHandshake;
  const std::uint64_t rdv = next_rdv_++;
  rdv_sends_[rdv] = RdvSend{&req, 0};
  // The handshake needs reactivity (§2.3): if every core turns busy, the
  // blocking LWP must watch for the CTS.  Cleared on completion.
  if (server_ != nullptr && !req.critical) {
    req.critical = true;
    server_->arm_critical();
  }
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kRts);
  hdr.tag = req.tag;
  hdr.seq = req.seq;
  hdr.size = static_cast<std::uint32_t>(req.send_data.size());
  hdr.rdv = rdv;
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  ++stats_.rdv_sends;
  ++stats_.wire_packets;
  send_packet(gate.peer, rail, std::move(pkt));
  trace_span("nm:rts", t0);
}

void Core::rma_send(unsigned dst, std::vector<std::byte>&& pkt) {
  ++stats_.wire_packets;
  send_packet(dst, preferred_rail(), std::move(pkt));
}

void Core::send_packet(unsigned dst, unsigned rail,
                       std::vector<std::byte>&& pkt) {
  if (reliable_ != nullptr && dst != node_id()) {
    reliable_->send(dst, rail, std::move(pkt));
  } else {
    // Intra-node traffic never touches a lossy link; no ARQ needed.
    fabric_.nic(node_id(), rail).inject(dst, pkt);
  }
}

// ------------------------------------------------------------- reception

void Core::handle_event(net::RxEvent ev) {
  charge(cfg_.rx_base_cost);
  if (ev.kind == net::RxEvent::Kind::kRdmaDone) {
    handle_rdma_done(ev);
    return;
  }
  if (reliable_ != nullptr && ev.src_node != node_id()) {
    // The sublayer filters duplicates/corruption and releases packets in
    // sequence order (several at once when a gap closes).
    for (const std::vector<std::byte>& pkt :
         reliable_->receive(ev.src_node, std::move(ev.data))) {
      deliver_packet(ev.src_node, pkt);
    }
    return;
  }
  deliver_packet(ev.src_node, ev.data);
}

void Core::deliver_packet(unsigned src, std::span<const std::byte> pkt) {
  std::size_t off = 0;
  WireHeader hdr;
  if (read_header(pkt, off, hdr) != Status::kOk) {
    ++stats_.dropped_malformed;
    PM2_DEBUG("node %u: dropping truncated packet from node %u", node_id(),
              src);
    return;
  }
  switch (static_cast<PacketKind>(hdr.kind)) {
    case PacketKind::kEager: {
      std::span<const std::byte> payload;
      if (read_payload(pkt, off, hdr.size, payload) != Status::kOk) {
        ++stats_.dropped_malformed;
        return;
      }
      handle_eager(src, hdr, payload);
      break;
    }
    case PacketKind::kAggregate:
      for (unsigned i = 0; i < hdr.count; ++i) {
        WireHeader sub;
        std::span<const std::byte> payload;
        if (read_header(pkt, off, sub) != Status::kOk ||
            static_cast<PacketKind>(sub.kind) != PacketKind::kEager ||
            read_payload(pkt, off, sub.size, payload) != Status::kOk) {
          ++stats_.dropped_malformed;
          return;
        }
        handle_eager(src, sub, payload);
      }
      break;
    case PacketKind::kRts:
      handle_rts(src, hdr);
      break;
    case PacketKind::kCts:
      handle_cts(hdr);
      break;
    case PacketKind::kAck:
      // Consumed by the reliability sublayer; a stray one (e.g. sublayer
      // disabled on this side) carries nothing for the core.
      break;
    case PacketKind::kRmaPut:
    case PacketKind::kRmaAcc:
    case PacketKind::kRmaGet:
    case PacketKind::kRmaGetRep:
    case PacketKind::kRmaRts:
    case PacketKind::kRmaCts:
    case PacketKind::kRmaFlushReq:
    case PacketKind::kRmaFlushAck: {
      // One-sided band: bypass matching, hand straight to the RMA engine.
      // Only kRmaPut/kRmaAcc/kRmaGetRep carry an inline body; the rest are
      // header-only and must not be read past the header.
      const PacketKind k = static_cast<PacketKind>(hdr.kind);
      std::span<const std::byte> payload;
      if (k == PacketKind::kRmaPut || k == PacketKind::kRmaAcc ||
          k == PacketKind::kRmaGetRep) {
        if (read_payload(pkt, off, hdr.size, payload) != Status::kOk) {
          ++stats_.dropped_malformed;
          return;
        }
      }
      if (rma_sink_ == nullptr) {
        // No RMA engine attached on this node; nothing can apply it.
        ++stats_.dropped_malformed;
        PM2_DEBUG("node %u: dropping RMA packet (no sink) from node %u",
                  node_id(), src);
        return;
      }
      rma_sink_->on_rma_packet(src, hdr, payload);
      break;
    }
    default:
      // Unknown kind: a corrupted byte on a fabric without the sublayer.
      ++stats_.dropped_malformed;
      PM2_DEBUG("node %u: dropping packet with unknown kind %u from node %u",
                node_id(), static_cast<unsigned>(hdr.kind), src);
      break;
  }
}

void Core::handle_eager(unsigned src, const WireHeader& hdr,
                        std::span<const std::byte> payload) {
  const SimTime t0 = fabric_.engine().now();
  // Charge the (single) copy cost *before* consulting the match table:
  // charging consumes virtual CPU time, i.e. it is a suspension point, and
  // the application may post the matching irecv while we are suspended.
  // All matching decisions must happen after the last suspension point —
  // the simulation analogue of §2.1's per-event mutual exclusion.  The
  // shard guard below can itself suspend (contended spin), so it too is
  // taken before the lookup; once held, match and table update are atomic.
  charge_copy(payload.size());
  matching::Shard& sh = match_.shard_for(src, hdr.tag);
  EngineLockGuard sg(sh.lock.get());
  ++sh.stats.arrivals;
  const MatchKey key{src, hdr.tag, hdr.seq};
  if (auto it = sh.posted.find(key); it != sh.posted.end()) {
    Request* req = it->second;
    sh.posted.erase(it);
    ++sh.stats.arrivals_matched;
    ++sh.stats.recvs_matched;
    PM2_ASSERT_MSG(payload.size() <= req->recv_buf.size(),
                   "receive buffer too small");
    if (FlightRecord* f = flight_of(*req)) {
      f->stamp(Stage::kWireRx, t0);
      f->stamp(Stage::kMatched, fabric_.engine().now());
    }
    flight_exec(*req);
    // Expected message: single copy, NIC buffer → application buffer,
    // done by whoever is processing (an idle core, with PIOMan).
    if (!payload.empty()) {
      std::memcpy(req->recv_buf.data(), payload.data(), payload.size());
    }
    req->received_len = static_cast<std::uint32_t>(payload.size());
    ++stats_.expected_eager;
    complete(*req);
  } else {
    // Unexpected: park a copy in the dedicated unexpected-message buffer.
    sh.unexpected.emplace(
        key, matching::UnexpectedEager{{payload.begin(), payload.end()}, t0});
    ++sh.stats.arrivals_buffered;
    ++stats_.unexpected_eager;
    if (hdr.tag >= kRpcTagBase) {
      ++rpc_unexpected_;
      sh.rpc_pending.emplace_back(src, hdr.tag);
    }
  }
  const SimTime mid = trace_span("nm:deliver", t0);
  trace_flow("wire", mid, wire_flow_id(src, node_id(), hdr.tag, hdr.seq),
             /*begin=*/false);
}

void Core::handle_rts(unsigned src, const WireHeader& hdr) {
  const SimTime now = fabric_.engine().now();
  matching::Shard& sh = match_.shard_for(src, hdr.tag);
  EngineLockGuard sg(sh.lock.get());
  ++sh.stats.arrivals;
  const MatchKey key{src, hdr.tag, hdr.seq};
  if (auto it = sh.posted.find(key); it != sh.posted.end()) {
    Request* req = it->second;
    sh.posted.erase(it);
    ++sh.stats.arrivals_matched;
    ++sh.stats.recvs_matched;
    start_rdv_recv(*req, src, hdr.rdv, hdr.size, now);
  } else {
    sh.unexpected_rts.emplace(
        key, matching::UnexpectedRts{hdr.rdv, hdr.size, now});
    ++sh.stats.arrivals_buffered;
    ++stats_.unexpected_rts;
    if (hdr.tag >= kRpcTagBase) {
      ++rpc_unexpected_;
      sh.rpc_pending.emplace_back(src, hdr.tag);
    }
  }
}

void Core::start_rdv_recv(Request& req, unsigned src, std::uint64_t rdv,
                          std::uint32_t size, SimTime wire_rx) {
  PM2_ASSERT_MSG(size <= req.recv_buf.size(),
                 "receive buffer too small for rendezvous message");
  const SimTime t0 = fabric_.engine().now();
  if (FlightRecord* f = flight_of(req)) {
    f->rdv = true;
    f->stamp(Stage::kWireRx, wire_rx != 0 ? wire_rx : t0);
    f->stamp(Stage::kMatched, t0);
  }
  flight_exec(req);
  req.state = Request::State::kDataInFlight;
  req.received_len = 0;
  // Detecting the zero-copy completion is reactivity-critical too.
  if (server_ != nullptr && !req.critical) {
    req.critical = true;
    server_->arm_critical();
  }
  net::Nic& nic = fabric_.nic(node_id(), 0);
  const net::RdmaHandle handle = nic.register_buffer(req.recv_buf.first(size));
  rdma_recvs_[handle] = RdvRecv{&req, size};
  // Answer the handshake: the data will land zero-copy in the application
  // buffer instead of the unexpected-message area (§2.3).
  WireHeader cts;
  cts.kind = static_cast<std::uint8_t>(PacketKind::kCts);
  cts.tag = req.tag;
  cts.seq = req.seq;
  cts.size = size;
  cts.rdv = rdv;
  cts.handle = handle;
  std::vector<std::byte> pkt;
  append_header(pkt, cts);
  ++stats_.wire_packets;
  send_packet(src, 0, std::move(pkt));
  trace_span("nm:rdv-match", t0);
}

void Core::handle_cts(const WireHeader& hdr) {
  const auto it = rdv_sends_.find(hdr.rdv);
  if (it == rdv_sends_.end() || it->second.parts_left != 0) {
    // Duplicate or stale CTS — the fault fabric can replay the packet after
    // the handshake already went through.
    ++stats_.dropped_malformed;
    return;
  }
  flight_stamp(*it->second.req, Stage::kMatched);  // handshake answered
  send_rdv_data(it, hdr.handle);
}

void Core::send_rdv_data(RdvSends::iterator it, std::uint64_t handle) {
  Request& req = *it->second.req;
  const SimTime t0 = fabric_.engine().now();
  flight_stamp(req, Stage::kPickup);
  flight_exec(req);
  req.state = Request::State::kDataInFlight;
  const auto plan = strategy_->plan_rdv(*this, req.send_data.size());
  PM2_ASSERT(!plan.empty());
  it->second.parts_left = static_cast<unsigned>(plan.size());
  for (const auto& stripe : plan) {
    fabric_.nic(node_id(), stripe.rail)
        .rdma_put(
            req.peer, handle,
            req.send_data.subspan(stripe.offset, stripe.length),
            [this, it] {
              if (--it->second.parts_left != 0) return;
              Request& done = *it->second.req;
              rdv_sends_.erase(it);
              complete(done);
            },
            stripe.offset);
  }
  flight_stamp(req, Stage::kInjected);
  const SimTime mid = trace_span("nm:rdv-data", t0);
  trace_flow("wire", mid, wire_flow_id(node_id(), req.peer, req.tag, req.seq),
             /*begin=*/true);
}

void Core::handle_rdma_done(const net::RxEvent& ev) {
  const SimTime t0 = fabric_.engine().now();
  const auto it = rdma_recvs_.find(ev.rdma);
  if (it == rdma_recvs_.end()) {
    // Not a two-sided rendezvous landing; the RMA engine registers its own
    // large-put windows and owns their completions.
    PM2_ASSERT_MSG(rma_sink_ != nullptr && rma_sink_->on_rdma_done(ev),
                   "RDMA completion for an unknown receive");
    return;
  }
  Request& req = *it->second.req;
  req.received_len += static_cast<std::uint32_t>(ev.rdma_len);
  PM2_ASSERT(req.received_len <= it->second.expected);
  if (req.received_len == it->second.expected) {
    rdma_recvs_.erase(it);
    fabric_.nic(node_id(), 0).unregister_buffer(ev.rdma);
    const SimTime mid = trace_span("nm:rdma-done", t0);
    trace_flow("wire", mid,
               wire_flow_id(req.peer, node_id(), req.tag, req.seq),
               /*begin=*/false);
    complete(req);
  }
}

// ------------------------------------------------------------------ misc

void Core::charge(SimDuration d) {
  PM2_ASSERT_MSG(marcel::detail::current_cpu() != nullptr,
                 "protocol work outside a simulated core");
  marcel::this_thread::compute(d);
}

void Core::charge_copy(std::size_t bytes) {
  charge(static_cast<SimDuration>(cfg_.copy_ns_per_byte *
                                  static_cast<double>(bytes)));
}

// ------------------------------------------- flight recorder / tracing

void Core::flight_init(Request& req, std::uint32_t bytes,
                       SimTime posted_at) {
  // Consume the staged lineage unconditionally: it applies to exactly the
  // next posted request, whether or not the flight recorder is on.
  const std::uint64_t trace = next_trace_id_;
  const std::uint64_t span = next_span_id_;
  next_trace_id_ = 0;
  next_span_id_ = 0;
  if (flight_ == nullptr) return;  // the slot's record stays closed (id 0)
  if (flights_.size() <= req.slot) flights_.resize(pool_.size());
  FlightRecord& f = flights_[req.slot];
  f = FlightRecord{};
  f.trace_id = trace;
  f.span_id = span;
  f.id = flight_->next_id();
  f.op = static_cast<std::uint8_t>(req.op);
  f.node = node_id();
  f.peer = req.peer;
  f.tag = req.tag;
  f.seq = req.seq;
  f.bytes = bytes;
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  f.post_cpu = cpu != nullptr ? static_cast<int>(cpu->index()) : -1;
  f.post_self = marcel::this_thread::self();
  f.stamp(Stage::kPosted, posted_at);
}

void Core::flight_stamp(Request& req, Stage s) {
  if (FlightRecord* f = flight_of(req)) f->stamp(s, fabric_.engine().now());
}

void Core::flight_exec(Request& req) {
  FlightRecord* f = flight_of(req);
  if (f == nullptr) return;
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  f->exec_cpu = cpu != nullptr ? static_cast<int>(cpu->index()) : -1;
  // A different executing identity — another thread, or a service fiber
  // (nullptr) — means the work left the posting thread's critical path.
  const void* exec_self = marcel::this_thread::self();
  f->offloaded = exec_self != f->post_self;
}

SimTime Core::trace_span(const char* name, SimTime start) {
  sim::Tracer* tracer = node_.runtime().tracer();
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  if (tracer == nullptr || cpu == nullptr) return 0;
  const SimTime now = fabric_.engine().now();
  // Zero-cost protocol steps still get a 1 ns sliver so the span exists
  // for flow arrows to bind to.
  const SimTime end = now > start ? now : start + 1;
  char track[32];
  std::snprintf(track, sizeof track, "node%u/cpu%u", node_.index(),
                cpu->index());
  tracer->span(track, name, start, end, "nm");
  return start + (end - start) / 2;
}

void Core::trace_flow(const char* name, SimTime at, std::uint64_t id,
                      bool begin) {
  sim::Tracer* tracer = node_.runtime().tracer();
  marcel::Cpu* cpu = marcel::detail::current_cpu();
  if (tracer == nullptr || cpu == nullptr || at == 0) return;
  char track[32];
  std::snprintf(track, sizeof track, "node%u/cpu%u", node_.index(),
                cpu->index());
  if (begin) {
    tracer->flow_begin(track, name, at, id);
  } else {
    tracer->flow_end(track, name, at, id);
  }
}

void Core::bind_metrics(MetricsRegistry& registry,
                        std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/sends", &stats_.sends);
  registry.bind_counter(p + "/recvs", &stats_.recvs);
  registry.bind_counter(p + "/eager_sends", &stats_.eager_sends);
  registry.bind_counter(p + "/rdv_sends", &stats_.rdv_sends);
  registry.bind_counter(p + "/expected_eager", &stats_.expected_eager);
  registry.bind_counter(p + "/unexpected_eager", &stats_.unexpected_eager);
  registry.bind_counter(p + "/unexpected_rts", &stats_.unexpected_rts);
  registry.bind_counter(p + "/wire_packets", &stats_.wire_packets);
  registry.bind_counter(p + "/aggregated_msgs", &stats_.aggregated_msgs);
  registry.bind_counter(p + "/dropped_malformed", &stats_.dropped_malformed);
  registry.bind_counter(p + "/pack_msgs", &stats_.pack_msgs);
  registry.bind_counter(p + "/pack_segments", &stats_.pack_segments);
  // Memory gauges: the request pool's high-water mark, the requests not
  // yet recycled (0 once a run has drained), and the gates made so far.
  registry.bind_gauge(p + "/requests/pooled", [this] {
    return static_cast<double>(requests_pooled());
  });
  registry.bind_gauge(p + "/requests/live", [this] {
    return static_cast<double>(requests_live());
  });
  registry.bind_gauge(p + "/gates", [this] {
    return static_cast<double>(gates_created());
  });
  // Per-shard matching counters + pending gauges ("<prefix>/shardS/*"):
  // bound in every mode (legacy = one shard), so the conservation checks
  // of tools/check_metrics.py --expect-shards apply to any metrics.json.
  match_.bind_metrics(registry, prefix);
}

}  // namespace pm2::nm
