#include "nmad/rma/rma.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"
#include "netsim/nic.hpp"

namespace pm2::nm::rma {
namespace {

/// Element-wise combine for accumulate.  memcpy in and out so the window
/// bytes never alias a typed object (UB-free under any alignment).
template <typename T>
void combine(std::byte* dst, const std::byte* src, std::size_t elems,
             AccOp op) {
  for (std::size_t i = 0; i < elems; ++i) {
    T cur;
    T val;
    std::memcpy(&cur, dst + i * sizeof(T), sizeof(T));
    std::memcpy(&val, src + i * sizeof(T), sizeof(T));
    switch (op) {
      case AccOp::kReplace: cur = val; break;
      case AccOp::kSum: cur = cur + val; break;
      case AccOp::kMax: cur = std::max(cur, val); break;
    }
    std::memcpy(dst + i * sizeof(T), &cur, sizeof(T));
  }
}

}  // namespace

Engine::Engine(Core& core, coll::Engine& coll)
    : core_(core), coll_(coll), server_(core.server()) {
  if (server_ != nullptr) cond_.emplace(*server_);
  core_.set_rma_sink(this);
}

Engine::~Engine() {
  PM2_ASSERT_MSG(gets_.empty() && rdv_puts_.empty() && landings_.empty(),
                 "RMA engine destroyed with operations in flight");
  for (const Window& w : wins_) {
    PM2_ASSERT_MSG(w.parked.empty(),
                   "RMA engine destroyed with a fence still parked");
    PM2_ASSERT_MSG(w.epochs_live == 0,
                   "RMA engine destroyed inside an open epoch");
  }
  core_.set_rma_sink(nullptr);
}

// --------------------------------------------------------------- helpers

namespace {
SimTime now_of(Core& core) { return core.fabric().engine().now(); }
}  // namespace

void Engine::charge(SimDuration d) {
  PM2_ASSERT_MSG(marcel::detail::current_cpu() != nullptr,
                 "RMA work outside a simulated core");
  marcel::this_thread::compute(d);
}

void Engine::charge_copy(std::size_t bytes) {
  charge(static_cast<SimDuration>(core_.config().copy_ns_per_byte *
                                  static_cast<double>(bytes)));
}

Engine::PeerState& Engine::peer(Window& w, unsigned rank) {
  std::uint32_t& slot = w.slot_of[rank];
  if (slot == 0) {
    w.peers.emplace_back();
    slot = static_cast<std::uint32_t>(w.peers.size());
  }
  return w.peers[slot - 1];
}

bool Engine::locked(const Window& w, unsigned rank) {
  const std::uint32_t slot = w.slot_of[rank];
  return slot != 0 && w.peers[slot - 1].locked;
}

std::size_t Engine::peer_slots(WinId win) const {
  PM2_ASSERT_MSG(win < wins_.size(), "unknown RMA window");
  return wins_[win].peers.size();
}

Engine::Window& Engine::checked_window(WinId win) {
  PM2_ASSERT_MSG(win < wins_.size(), "unknown RMA window");
  return wins_[win];
}

Status Engine::validate_op(Window& w, unsigned rank, std::uint64_t offset,
                           std::size_t size) {
  PM2_ASSERT_MSG(rank < w.sizes.size(), "RMA op to a rank outside the world");
  PM2_ASSERT_MSG(w.fence_open || locked(w, rank),
                 "RMA op outside an open epoch (fence or lock first)");
  // Overflow-safe: offset + size could wrap, offset alone cannot.
  if (offset > w.sizes[rank] || size > w.sizes[rank] - offset) {
    return Status::kOutOfRange;
  }
  return Status::kOk;
}

template <typename Pred>
void Engine::wait_until(Pred done) {
  if (server_ != nullptr) {
    // Cond-based polling wait: the waiter participates in progression, and
    // every remote event that can satisfy a predicate signals the cond.
    // The shared cond wakes all origin waiters; each re-checks its own
    // predicate (no suspension between reset and wait, so a signal cannot
    // slip through the gap).
    while (!done()) {
      cond_->reset();
      if (done()) break;
      cond_->wait();
    }
    return;
  }
  // App-driven baseline: the waiting thread performs all progression.
  core_.poll_until(done,
                   [this](marcel::Cpu& cpu) { return core_.progress(cpu); });
}

// ------------------------------------------------------ window lifecycle

WinId Engine::win_create(std::span<std::byte> local) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  ++stats_.wins_created;
  const WinId id = static_cast<WinId>(wins_.size());
  wins_.emplace_back();
  Window& w = wins_.back();
  w.local = local;
  w.sizes.assign(world(), 0);
  w.slot_of.assign(world(), 0);
  // Exchange exposed sizes; the id itself advances in lockstep because
  // win_create is collective.  The allgather doubles as the barrier that
  // guarantees every rank's window exists before any rank can target it.
  const std::uint64_t mine = local.size();
  coll_.wait(coll_.iallgather(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(&mine),
                                 sizeof mine),
      std::span<std::byte>(reinterpret_cast<std::byte*>(w.sizes.data()),
                           w.sizes.size() * sizeof(std::uint64_t))));
  return id;
}

// -------------------------------------------------- origin-side: put/acc

Status Engine::put(WinId win, unsigned rank, std::uint64_t offset,
                   std::span<const std::byte> data) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  if (const Status st = validate_op(w, rank, offset, data.size());
      st != Status::kOk) {
    return st;
  }
  if (data.empty()) return Status::kOk;
  PeerState& ps = peer(w, rank);
  const std::uint32_t seq = w.next_seq++;
  ++ps.issued;
  ++stats_.puts_issued;
  stats_.bytes_put += data.size();
  const SimTime t0 = now_of(core_);
  const std::uint64_t span = op_span_open(win, w);

  if (data.size() <= core_.config().rdv_threshold) {
    ++stats_.puts_eager;
    WireHeader hdr;
    hdr.kind = static_cast<std::uint8_t>(PacketKind::kRmaPut);
    hdr.tag = win;
    hdr.seq = seq;
    hdr.size = static_cast<std::uint32_t>(data.size());
    hdr.rdv = offset;
    std::vector<std::byte> pkt;
    append_header(pkt, hdr);
    append_payload(pkt, data);
    core_.rma_send(rank, std::move(pkt));
    flight_eager_send(rank, win, seq, static_cast<std::uint32_t>(data.size()),
                      t0, now_of(core_));
    // The origin-side op span ends at injection; remote application is
    // observed through the flush fence, not per-op.
    op_span_close(span, win);
    return Status::kOk;
  }

  // Large put: rendezvous.  The target registers a landing zone inside its
  // window and grants via kRmaCts; the data then moves as a zero-copy NIC
  // RDMA and both sides see completions in engine context.
  ++stats_.puts_rdv;
  ++ps.rdv_inflight;
  const std::uint64_t id = next_rdv_++;
  RdvPut& rp = rdv_puts_[id];
  rp.win = win;
  rp.rank = rank;
  rp.data = data;
  rp.issued_at = t0;
  rp.span = span;
  rp.seq = seq;
  if (FlightRecorder* fr = core_.flight_recorder()) {
    rp.flight_on = true;
    rp.flight.id = fr->next_id();
    rp.flight.op = static_cast<std::uint8_t>(Request::Op::kSend);
    rp.flight.rdv = true;
    rp.flight.node = this->rank();
    rp.flight.peer = rank;
    rp.flight.tag = kRmaFlightBand | win;
    rp.flight.seq = seq;
    rp.flight.bytes = static_cast<std::uint32_t>(data.size());
    if (const marcel::Cpu* c = marcel::detail::current_cpu()) {
      rp.flight.post_cpu = static_cast<int>(c->index());
    }
    rp.flight.post_self = marcel::this_thread::self();
    rp.flight.stamp(Stage::kPosted, t0);
    rp.flight.stamp(Stage::kEnqueued, t0);
  }
  // Detecting the CTS and the delivery completion is reactivity-critical,
  // like the two-sided rendezvous path.
  if (server_ != nullptr) server_->arm_critical();
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kRmaRts);
  hdr.tag = win;
  hdr.seq = seq;
  hdr.size = static_cast<std::uint32_t>(data.size());
  hdr.rdv = id;
  hdr.handle = offset;
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  core_.rma_send(rank, std::move(pkt));
  return Status::kOk;
}

Status Engine::accumulate(WinId win, unsigned rank, std::uint64_t offset,
                          std::span<const std::byte> data, AccOp op,
                          AccType type) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  if (const Status st = validate_op(w, rank, offset, data.size());
      st != Status::kOk) {
    return st;
  }
  if (data.size() % 8 != 0 || offset % 8 != 0 ||
      data.size() > core_.config().rdv_threshold) {
    // Accumulates are eager-only: per-packet application is what makes
    // them atomic, and a rendezvous accumulate would need a target-side
    // staging copy anyway.
    return Status::kInvalidArgument;
  }
  if (data.empty()) return Status::kOk;
  PeerState& ps = peer(w, rank);
  const std::uint32_t seq = w.next_seq++;
  ++ps.issued;
  ++stats_.accs_issued;
  stats_.bytes_acc += data.size();
  const SimTime t0 = now_of(core_);
  const std::uint64_t span = op_span_open(win, w);
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kRmaAcc);
  hdr.tag = win;
  hdr.seq = seq;
  hdr.count = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(type) << 8) | static_cast<std::uint16_t>(op));
  hdr.size = static_cast<std::uint32_t>(data.size());
  hdr.rdv = offset;
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  append_payload(pkt, data);
  core_.rma_send(rank, std::move(pkt));
  flight_eager_send(rank, win, seq, static_cast<std::uint32_t>(data.size()),
                    t0, now_of(core_));
  op_span_close(span, win);
  return Status::kOk;
}

// ------------------------------------------------------ origin-side: get

Status Engine::get(WinId win, unsigned rank, std::uint64_t offset,
                   std::span<std::byte> out) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  if (const Status st = validate_op(w, rank, offset, out.size());
      st != Status::kOk) {
    return st;
  }
  if (out.empty()) return Status::kOk;
  PeerState& ps = peer(w, rank);
  ++ps.gets_pending;
  ++stats_.gets_issued;
  stats_.bytes_got += out.size();
  const std::uint32_t seq = w.next_seq++;
  const std::uint64_t id = next_get_++;
  PendingGet& pg = gets_[id];
  pg.win = win;
  pg.rank = rank;
  pg.out = out;
  pg.issued_at = now_of(core_);
  pg.span = op_span_open(win, w);
  pg.seq = seq;
  // The reply lands in engine context; a blocked origin must still see it.
  if (server_ != nullptr) server_->arm_critical();
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kRmaGet);
  hdr.tag = win;
  hdr.seq = seq;
  hdr.size = static_cast<std::uint32_t>(out.size());
  hdr.rdv = offset;
  hdr.handle = id;
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  core_.rma_send(rank, std::move(pkt));
  return Status::kOk;
}

// ------------------------------------------------------ completion fences

void Engine::send_flush_req(WinId win, Window& w, unsigned rank) {
  PeerState& ps = peer(w, rank);
  ++stats_.flush_reqs;
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kRmaFlushReq);
  hdr.tag = win;
  hdr.seq = ps.next_fence++;
  hdr.rdv = ps.issued;  // ack once this many of my ops are applied
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  core_.rma_send(rank, std::move(pkt));
}

void Engine::flush(WinId win, unsigned rank) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  ++stats_.flushes;
  Window& w = checked_window(win);
  PM2_ASSERT_MSG(rank < w.sizes.size(), "flush() to a rank outside the world");
  PM2_ASSERT_MSG(w.fence_open || locked(w, rank),
                 "flush() outside an open epoch");
  PeerState& ps = peer(w, rank);
  const std::uint64_t span = op_span_open(win, w);
  if (ps.issued > ps.acked) send_flush_req(win, w, rank);
  wait_until([&ps] {
    return ps.acked >= ps.issued && ps.gets_pending == 0 &&
           ps.rdv_inflight == 0;
  });
  op_span_close(span, win);
}

void Engine::flush_all(WinId win) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  const std::uint64_t span = op_span_open(win, w);
  // Fan the fence requests out first, then wait on the combined predicate
  // — the round-trips overlap instead of serializing rank by rank.  Only
  // touched peers can owe anything.
  for (unsigned r = 0; r < w.slot_of.size(); ++r) {
    const std::uint32_t slot = w.slot_of[r];
    if (slot != 0 && w.peers[slot - 1].issued > w.peers[slot - 1].acked) {
      ++stats_.flushes;
      send_flush_req(win, w, r);
    }
  }
  wait_until([&w] {
    for (const PeerState& ps : w.peers) {
      if (ps.acked < ps.issued || ps.gets_pending != 0 ||
          ps.rdv_inflight != 0) {
        return false;
      }
    }
    return true;
  });
  op_span_close(span, win);
}

// ----------------------------------------------------------------- epochs

void Engine::epoch_open(WinId win, Window& w) {
  if (w.epochs_live++ == 0 && trace_ != nullptr) {
    w.epoch_trace = trace_->new_trace();
    w.epoch_span = trace_->new_span();
    trace_->record(w.epoch_trace, w.epoch_span, 0,
                   tracing::EventKind::kRmaEpochStart, win, now_of(core_));
  }
}

void Engine::epoch_close(WinId win, Window& w) {
  PM2_ASSERT(w.epochs_live > 0);
  if (--w.epochs_live == 0 && w.epoch_trace != 0) {
    trace_->record(w.epoch_trace, w.epoch_span, 0,
                   tracing::EventKind::kRmaEpochEnd, win, now_of(core_));
    w.epoch_trace = 0;
    w.epoch_span = 0;
  }
}

void Engine::lock(WinId win, unsigned rank) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  PM2_ASSERT_MSG(rank < w.sizes.size(), "lock() on a rank outside the world");
  PM2_ASSERT_MSG(!w.fence_open, "lock() inside an open fence epoch");
  PM2_ASSERT_MSG(!locked(w, rank), "lock() on an already-locked target");
  peer(w, rank).locked = true;
  ++stats_.epochs_opened;
  epoch_open(win, w);
}

void Engine::unlock(WinId win, unsigned rank) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  PM2_ASSERT_MSG(rank < w.sizes.size(),
                 "unlock() on a rank outside the world");
  PM2_ASSERT_MSG(locked(w, rank), "unlock() without a matching lock()");
  flush(win, rank);
  peer(w, rank).locked = false;
  ++stats_.epochs_closed;
  epoch_close(win, w);
}

void Engine::fence(WinId win) {
  marcel::EngineScope es;
  ++stats_.api_calls;
  Window& w = checked_window(win);
  if (!w.fence_open) {
    PM2_ASSERT_MSG(w.epochs_live == 0,
                   "fence() cannot open while lock epochs are held");
    // Nobody may issue into the new exposure before every rank has left
    // the previous one.
    coll_.wait(coll_.ibarrier());
    w.fence_open = true;
    ++stats_.epochs_opened;
    epoch_open(win, w);
  } else {
    flush_all(win);
    // My ops are applied; the barrier makes that true of everyone's
    // before any rank reads the exposed buffers.
    coll_.wait(coll_.ibarrier());
    w.fence_open = false;
    ++stats_.epochs_closed;
    epoch_close(win, w);
  }
}

bool Engine::progress() {
  marcel::EngineScope es;
  ++stats_.api_calls;
  return core_.progress(marcel::this_thread::cpu());
}

// ------------------------------------------- target side (engine context)

void Engine::on_rma_packet(unsigned src, const WireHeader& hdr,
                           std::span<const std::byte> payload) {
  switch (static_cast<PacketKind>(hdr.kind)) {
    case PacketKind::kRmaPut: apply_put(src, hdr, payload); break;
    case PacketKind::kRmaAcc: apply_acc(src, hdr, payload); break;
    case PacketKind::kRmaGet: serve_get(src, hdr); break;
    case PacketKind::kRmaGetRep: handle_get_reply(hdr, payload); break;
    case PacketKind::kRmaRts: handle_rts(src, hdr); break;
    case PacketKind::kRmaCts: handle_cts(src, hdr); break;
    case PacketKind::kRmaFlushReq: handle_flush_req(src, hdr); break;
    case PacketKind::kRmaFlushAck: handle_flush_ack(src, hdr); break;
    default:
      ++stats_.dropped_out_of_range;
      break;
  }
}

void Engine::apply_put(unsigned src, const WireHeader& hdr,
                       std::span<const std::byte> payload) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  const std::uint64_t off = hdr.rdv;
  if (src >= w.sizes.size() || off > w.local.size() ||
      payload.size() > w.local.size() - off) {
    ++stats_.dropped_out_of_range;
    return;
  }
  const SimTime rx = now_of(core_);
  // Charge the copy (a suspension point) *before* the mutation: the write
  // itself then happens atomically w.r.t. every other fiber, which is the
  // whole atomicity story — no target-side locks anywhere.
  charge_copy(payload.size());
  std::memcpy(w.local.data() + off, payload.data(), payload.size());
  ++stats_.puts_applied;
  flight_applied(src, hdr.tag, hdr.seq,
                 static_cast<std::uint32_t>(payload.size()), rx, false);
  note_applied(hdr.tag, w, src);
}

void Engine::apply_acc(unsigned src, const WireHeader& hdr,
                       std::span<const std::byte> payload) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  const std::uint64_t off = hdr.rdv;
  const auto type = static_cast<AccType>((hdr.count >> 8) & 0xff);
  const auto op = static_cast<AccOp>(hdr.count & 0xff);
  if (src >= w.sizes.size() || off > w.local.size() ||
      payload.size() > w.local.size() - off || off % 8 != 0 ||
      payload.size() % 8 != 0 || type > AccType::kF64 || op > AccOp::kMax) {
    ++stats_.dropped_out_of_range;
    return;
  }
  const SimTime rx = now_of(core_);
  charge_copy(payload.size());
  // The combine loop has no suspension points, so each packet's
  // read-modify-write is atomic under the cooperative scheduler —
  // concurrent accumulates from any number of origins sum exactly.
  const std::size_t elems = payload.size() / 8;
  if (type == AccType::kU64) {
    combine<std::uint64_t>(w.local.data() + off, payload.data(), elems, op);
  } else {
    combine<double>(w.local.data() + off, payload.data(), elems, op);
  }
  ++stats_.accs_applied;
  flight_applied(src, hdr.tag, hdr.seq,
                 static_cast<std::uint32_t>(payload.size()), rx, false);
  note_applied(hdr.tag, w, src);
}

void Engine::serve_get(unsigned src, const WireHeader& hdr) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  const std::uint64_t off = hdr.rdv;
  if (off > w.local.size() || hdr.size > w.local.size() - off) {
    ++stats_.dropped_out_of_range;
    return;
  }
  const SimTime rx = now_of(core_);
  charge_copy(hdr.size);
  WireHeader rep;
  rep.kind = static_cast<std::uint8_t>(PacketKind::kRmaGetRep);
  rep.tag = hdr.tag;
  rep.seq = hdr.seq;
  rep.size = hdr.size;
  rep.handle = hdr.handle;  // get op id, echoed for the origin lookup
  std::vector<std::byte> pkt;
  append_header(pkt, rep);
  append_payload(pkt, w.local.subspan(off, hdr.size));
  core_.rma_send(src, std::move(pkt));
  ++stats_.gets_served;
  // The serve is the send half of the get's flight pair.
  if (FlightRecorder* fr = core_.flight_recorder()) {
    FlightRecord f;
    f.id = fr->next_id();
    f.op = static_cast<std::uint8_t>(Request::Op::kSend);
    f.node = rank();
    f.peer = src;
    f.tag = kRmaFlightBand | hdr.tag;
    f.seq = hdr.seq;
    f.bytes = hdr.size;
    f.offloaded = server_ != nullptr;
    if (const marcel::Cpu* c = marcel::detail::current_cpu()) {
      f.post_cpu = static_cast<int>(c->index());
      f.exec_cpu = f.post_cpu;
    }
    f.stamp(Stage::kPosted, rx);
    f.stamp(Stage::kEnqueued, rx);
    f.stamp(Stage::kPickup, rx);
    f.stamp(Stage::kInjected, now_of(core_));
    f.stamp(Stage::kCompleted, now_of(core_));
    fr->commit(f);
  }
}

void Engine::handle_get_reply(const WireHeader& hdr,
                              std::span<const std::byte> payload) {
  const auto it = gets_.find(hdr.handle);
  if (it == gets_.end() || payload.size() != it->second.out.size()) {
    // Stale duplicate (fault fabric without the reliable sublayer) or a
    // garbled size; either way nothing to apply.
    ++stats_.dropped_out_of_range;
    return;
  }
  // Pop before the copy charge suspends, so a duplicate reply arriving
  // mid-copy cannot double-apply.
  const PendingGet pg = it->second;
  gets_.erase(it);
  const SimTime rx = now_of(core_);
  charge_copy(payload.size());
  std::memcpy(pg.out.data(), payload.data(), payload.size());
  Window& w = wins_[pg.win];
  PeerState& ps = peer(w, pg.rank);
  PM2_ASSERT(ps.gets_pending > 0);
  --ps.gets_pending;
  ++stats_.gets_completed;
  if (server_ != nullptr) server_->disarm_critical();
  if (FlightRecorder* fr = core_.flight_recorder()) {
    FlightRecord f;
    f.id = fr->next_id();
    f.op = static_cast<std::uint8_t>(Request::Op::kRecv);
    f.node = rank();
    f.peer = pg.rank;
    f.tag = kRmaFlightBand | pg.win;
    f.seq = pg.seq;
    f.bytes = static_cast<std::uint32_t>(payload.size());
    f.offloaded = server_ != nullptr;
    if (const marcel::Cpu* c = marcel::detail::current_cpu()) {
      f.exec_cpu = static_cast<int>(c->index());
    }
    f.stamp(Stage::kPosted, pg.issued_at);
    f.stamp(Stage::kWireRx, rx);
    f.stamp(Stage::kMatched, rx);
    f.stamp(Stage::kCompleted, now_of(core_));
    fr->commit(f);
  }
  op_span_close(pg.span, pg.win);
  if (cond_) cond_->signal();
}

void Engine::handle_rts(unsigned src, const WireHeader& hdr) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  const std::uint64_t off = hdr.handle;  // target offset rides `handle`
  if (src >= w.sizes.size() || off > w.local.size() ||
      hdr.size > w.local.size() - off) {
    // A corrupt RTS gets no grant; the origin's fence will never cover an
    // op that was never legitimately issued.
    ++stats_.dropped_out_of_range;
    return;
  }
  net::Nic& nic = core_.fabric().nic(rank(), 0);
  const net::RdmaHandle h = nic.register_buffer(w.local.subspan(off, hdr.size));
  RdvLanding& land = landings_[h];
  land.win = hdr.tag;
  land.src = src;
  land.expected = hdr.size;
  land.wire_rx = now_of(core_);
  land.seq = hdr.seq;
  WireHeader cts;
  cts.kind = static_cast<std::uint8_t>(PacketKind::kRmaCts);
  cts.tag = hdr.tag;
  cts.seq = hdr.seq;
  cts.size = hdr.size;
  cts.rdv = hdr.rdv;  // origin's rdv-put id, echoed
  cts.handle = h;
  std::vector<std::byte> pkt;
  append_header(pkt, cts);
  core_.rma_send(src, std::move(pkt));
}

void Engine::handle_cts(unsigned src, const WireHeader& hdr) {
  (void)src;
  const auto it = rdv_puts_.find(hdr.rdv);
  if (it == rdv_puts_.end()) {
    ++stats_.dropped_out_of_range;  // duplicate grant
    return;
  }
  const std::uint64_t id = it->first;
  RdvPut& rp = it->second;
  if (rp.flight_on) {
    rp.flight.stamp(Stage::kMatched, now_of(core_));
    rp.flight.stamp(Stage::kPickup, now_of(core_));
    rp.flight.stamp(Stage::kInjected, now_of(core_));
  }
  core_.fabric()
      .nic(rank(), core_.preferred_rail())
      .rdma_put(rp.rank, hdr.handle, rp.data,
                [this, id] {
                  // Engine context: no blocking, no CPU charge.
                  const auto dit = rdv_puts_.find(id);
                  PM2_ASSERT(dit != rdv_puts_.end());
                  RdvPut done = std::move(dit->second);
                  rdv_puts_.erase(dit);
                  Window& w = wins_[done.win];
                  PeerState& ps = peer(w, done.rank);
                  PM2_ASSERT(ps.rdv_inflight > 0);
                  --ps.rdv_inflight;
                  if (done.flight_on) {
                    if (FlightRecorder* fr = core_.flight_recorder()) {
                      done.flight.stamp(Stage::kCompleted, now_of(core_));
                      fr->commit(done.flight);
                    }
                  }
                  op_span_close(done.span, done.win);
                  if (server_ != nullptr) server_->disarm_critical();
                  if (cond_) cond_->signal();
                },
                0);
}

void Engine::handle_flush_req(unsigned src, const WireHeader& hdr) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  if (src >= w.sizes.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  const std::uint64_t applied = peer(w, src).applied_from;
  if (applied >= hdr.rdv) {
    ++stats_.flush_acks;
    WireHeader ack;
    ack.kind = static_cast<std::uint8_t>(PacketKind::kRmaFlushAck);
    ack.tag = hdr.tag;
    ack.seq = hdr.seq;
    ack.rdv = applied;
    std::vector<std::byte> pkt;
    append_header(pkt, ack);
    core_.rma_send(src, std::move(pkt));
    return;
  }
  // The fence outran the ops it covers (RDMA still landing, or eager puts
  // on another rail): park it and retire it from note_applied.
  w.parked.push_back(ParkedFence{src, hdr.rdv, hdr.seq});
}

void Engine::handle_flush_ack(unsigned src, const WireHeader& hdr) {
  if (hdr.tag >= wins_.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  Window& w = wins_[hdr.tag];
  if (src >= w.sizes.size()) {
    ++stats_.dropped_out_of_range;
    return;
  }
  ++stats_.flush_acks_rx;
  PeerState& ps = peer(w, src);
  if (hdr.rdv > ps.acked) ps.acked = hdr.rdv;
  if (cond_) cond_->signal();
}

void Engine::note_applied(WinId win, Window& w, unsigned src) {
  PeerState& from = peer(w, src);
  ++from.applied_from;
  // Collect-then-send: sending an ack charges CPU (a suspension point),
  // and another apply may mutate `parked` while we are suspended.
  std::vector<ParkedFence> ready;
  for (auto it = w.parked.begin(); it != w.parked.end();) {
    if (it->src == src && from.applied_from >= it->need) {
      ready.push_back(*it);
      it = w.parked.erase(it);
    } else {
      ++it;
    }
  }
  for (const ParkedFence& f : ready) {
    ++stats_.flush_acks;
    WireHeader ack;
    ack.kind = static_cast<std::uint8_t>(PacketKind::kRmaFlushAck);
    ack.tag = win;
    ack.seq = f.fence_id;
    ack.rdv = from.applied_from;
    std::vector<std::byte> pkt;
    append_header(pkt, ack);
    core_.rma_send(f.src, std::move(pkt));
  }
}

bool Engine::on_rdma_done(const net::RxEvent& ev) {
  const auto it = landings_.find(ev.rdma);
  if (it == landings_.end()) return false;
  RdvLanding& land = it->second;
  land.received += ev.rdma_len;
  PM2_ASSERT(land.received <= land.expected);
  if (land.received < land.expected) return true;
  const RdvLanding done = land;
  landings_.erase(it);
  core_.fabric().nic(rank(), 0).unregister_buffer(ev.rdma);
  ++stats_.puts_applied;
  Window& w = wins_[done.win];
  flight_applied(done.src, done.win, done.seq,
                 static_cast<std::uint32_t>(done.expected), done.wire_rx,
                 /*rdv=*/true);
  note_applied(done.win, w, done.src);
  return true;
}

// -------------------------------------------------- tracing / flights

std::uint64_t Engine::op_span_open(WinId win, const Window& w) {
  if (trace_ == nullptr || w.epoch_trace == 0) return 0;
  const std::uint64_t span = trace_->new_span();
  trace_->record(w.epoch_trace, span, w.epoch_span,
                 tracing::EventKind::kRmaOpIssued, win, now_of(core_));
  return span;
}

void Engine::op_span_close(std::uint64_t span, WinId win) {
  if (span == 0) return;
  const Window& w = wins_[win];
  // Epoch-ordering rules guarantee the epoch outlives its ops: unlock and
  // fence-close flush first, so every op span closes before the epoch's.
  PM2_ASSERT(w.epoch_trace != 0);
  trace_->record(w.epoch_trace, span, 0, tracing::EventKind::kRmaOpDone, win,
                 now_of(core_));
}

void Engine::flight_eager_send(unsigned rank, WinId win, std::uint32_t seq,
                               std::uint32_t bytes, SimTime posted,
                               SimTime injected) {
  FlightRecorder* fr = core_.flight_recorder();
  if (fr == nullptr) return;
  FlightRecord f;
  f.id = fr->next_id();
  f.op = static_cast<std::uint8_t>(Request::Op::kSend);
  f.node = this->rank();
  f.peer = rank;
  f.tag = kRmaFlightBand | win;
  f.seq = seq;
  f.bytes = bytes;
  if (const marcel::Cpu* c = marcel::detail::current_cpu()) {
    f.post_cpu = static_cast<int>(c->index());
    f.exec_cpu = f.post_cpu;
  }
  f.post_self = marcel::this_thread::self();
  f.stamp(Stage::kPosted, posted);
  f.stamp(Stage::kEnqueued, posted);
  f.stamp(Stage::kPickup, posted);
  f.stamp(Stage::kInjected, injected);
  f.stamp(Stage::kCompleted, injected);
  fr->commit(f);
}

void Engine::flight_applied(unsigned src, WinId win, std::uint32_t seq,
                            std::uint32_t bytes, SimTime wire_rx, bool rdv) {
  FlightRecorder* fr = core_.flight_recorder();
  if (fr == nullptr) return;
  FlightRecord f;
  f.id = fr->next_id();
  f.op = static_cast<std::uint8_t>(Request::Op::kRecv);
  f.rdv = rdv;
  f.offloaded = server_ != nullptr;
  f.node = rank();
  f.peer = src;
  f.tag = kRmaFlightBand | win;
  f.seq = seq;
  f.bytes = bytes;
  if (const marcel::Cpu* c = marcel::detail::current_cpu()) {
    f.exec_cpu = static_cast<int>(c->index());
  }
  // The target never posted anything — the arrival *is* the post, which
  // keeps the attribution law (records = sends + recvs) intact.
  f.stamp(Stage::kPosted, wire_rx);
  f.stamp(Stage::kWireRx, wire_rx);
  f.stamp(Stage::kMatched, wire_rx);
  f.stamp(Stage::kCompleted, now_of(core_));
  fr->commit(f);
}

// ------------------------------------------------------------- metrics

void Engine::bind_metrics(MetricsRegistry& registry, std::string_view prefix) {
  const std::string p(prefix);
  registry.bind_counter(p + "/api_calls", &stats_.api_calls);
  registry.bind_counter(p + "/wins_created", &stats_.wins_created);
  registry.bind_counter(p + "/epochs_opened", &stats_.epochs_opened);
  registry.bind_counter(p + "/epochs_closed", &stats_.epochs_closed);
  registry.bind_counter(p + "/puts_issued", &stats_.puts_issued);
  registry.bind_counter(p + "/puts_eager", &stats_.puts_eager);
  registry.bind_counter(p + "/puts_rdv", &stats_.puts_rdv);
  registry.bind_counter(p + "/puts_applied", &stats_.puts_applied);
  registry.bind_counter(p + "/accs_issued", &stats_.accs_issued);
  registry.bind_counter(p + "/accs_applied", &stats_.accs_applied);
  registry.bind_counter(p + "/gets_issued", &stats_.gets_issued);
  registry.bind_counter(p + "/gets_served", &stats_.gets_served);
  registry.bind_counter(p + "/gets_completed", &stats_.gets_completed);
  registry.bind_counter(p + "/flushes", &stats_.flushes);
  registry.bind_counter(p + "/flush_reqs", &stats_.flush_reqs);
  registry.bind_counter(p + "/flush_acks", &stats_.flush_acks);
  registry.bind_counter(p + "/flush_acks_rx", &stats_.flush_acks_rx);
  registry.bind_counter(p + "/bytes_put", &stats_.bytes_put);
  registry.bind_counter(p + "/bytes_got", &stats_.bytes_got);
  registry.bind_counter(p + "/bytes_acc", &stats_.bytes_acc);
  registry.bind_counter(p + "/dropped_out_of_range",
                        &stats_.dropped_out_of_range);
  registry.bind_gauge(p + "/ops_pending", [this] {
    return static_cast<double>(gets_.size() + rdv_puts_.size() +
                               landings_.size());
  });
  registry.bind_gauge(p + "/fences_parked", [this] {
    std::size_t n = 0;
    for (const Window& w : wins_) n += w.parked.size();
    return static_cast<double>(n);
  });
}

}  // namespace pm2::nm::rma
