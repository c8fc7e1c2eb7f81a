// RPC engine: marshalling, service dispatch, completion signalling.
//
// The receive path deliberately avoids preposted receives.  A preposted
// listener irecv keeps the PIOMan server armed forever — idle cores would
// poll (and the simulation would never quiesce) even with no traffic.
// Instead the core buffers inbound RPC-band messages as unexpected,
// queues their (src, tag), and exposes both through rpc_unexpected() /
// pop_rpc_pending(); the engine's poll source then posts an exactly-sized
// receive for each, after arrival.  The cost — the unexpected-store copy
// — is the same double copy any unexpected eager message pays (§2.2).
#include "pm2/rpc.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/metrics.hpp"
#include "marcel/cpu.hpp"

namespace pm2::rpc {

// ------------------------------------------------------------- lifecycle

Engine::Engine(nm::Core& core) : core_(core) {
  if (piom::Server* server = core_.server(); server != nullptr) {
    // Permanent progress source: unlike a collective (locally launched,
    // so its source can be transient), an inbound RPC arrives
    // unannounced.  Quiescence is preserved because the work probe gates
    // polling: with nothing buffered and nothing queued, idle cores park
    // as usual.  An empty drain() takes the pending-queue locks, finds
    // nothing and reaps finished handlers.
    source_id_ = server->add_source({
        .name = "rpc",
        .poll = [this](marcel::Cpu&) { return drain(); },
        .has_work =
            [this] { return core_.rpc_unexpected() > 0 || !inbox_.empty(); },
        .quiet =
            [this] {
              return inbox_.empty() && core_.pop_rpc_pending_quiet();
            },
        .poll_empty =
            [this](std::uint64_t n) {
              core_.pop_rpc_pending_empty(n);
              reap_handlers();
            },
    });
  }
}

Engine::~Engine() {
  PM2_ASSERT_MSG(inbox_.empty(),
                 "rpc engine destroyed with undispatched messages");
  reap_handlers();
  PM2_ASSERT_MSG(handler_threads_.empty(),
                 "rpc engine destroyed with live handler threads");
  PM2_ASSERT_MSG(completions_.empty(),
                 "rpc engine destroyed with registered completions");
  if (piom::Server* server = core_.server(); server != nullptr) {
    server->remove_source(source_id_);
  }
}

void Engine::register_service(std::uint32_t service, Handler handler) {
  PM2_ASSERT(handler != nullptr);
  const auto [it, inserted] = services_.emplace(service, std::move(handler));
  PM2_ASSERT_MSG(inserted, "rpc service id registered twice");
}

// ------------------------------------------------------------ client side

void Engine::call(unsigned dst, std::uint32_t service,
                  const Marshal& marshal) {
  ++stats_.issued;
  const SimTime t_issue = core_.fabric().engine().now();
  // Mint (or continue) the causal trace: a call issued from a traced
  // handler vthread continues that handler's trace as a child span; a
  // call from anywhere else roots a fresh trace.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  if (trace_ != nullptr) {
    const tracing::TraceContext ambient =
        trace_->current(marcel::this_thread::self());
    trace = ambient.valid() ? ambient.trace_id : trace_->new_trace();
    span = trace_->new_span();
    trace_->record(trace, span, ambient.parent_span_id,
                   tracing::EventKind::kCallIssued, service, t_issue);
  }
  OutMsg* m = acquire_out();
  m->args.clear();
  m->trace_id = trace;
  m->span_id = span;
  m->service = service;
  if (marshal) {
    ArgWriter w(m->args);
    marshal(w);
  }
  if (trace != 0) {
    trace_->record(trace, span, 0, tracing::EventKind::kMarshalDone, service,
                   core_.fabric().engine().now());
  }
  MsgHeader hdr;
  hdr.service = service;
  hdr.origin = node_id();
  hdr.request_id = next_request_id_++;
  hdr.issued_ns = static_cast<std::int64_t>(core_.fabric().engine().now());
  hdr.trace_id = trace;
  hdr.span_id = span;
  hdr.arg_bytes = static_cast<std::uint32_t>(m->args.size());
  // Header + args travel as one Madeleine pack message: two segments
  // gathered on the sending side, parsed out of one buffer on the other.
  if (trace != 0) core_.set_next_trace(trace, span);
  m->pack.emplace(core_, dst, kReqTag);
  m->pack->add({reinterpret_cast<const std::byte*>(&hdr), sizeof hdr});
  m->pack->add(m->args);
  finish_send(m->pack->send(), m);
}

void Engine::signal(const CompletionRef& ref, std::uint32_t delta) {
  PM2_ASSERT(delta > 0);
  ++stats_.signals_sent;
  // The signal span belongs to the ref's trace (stamped at marshal time,
  // surviving any number of forwards).  Parent: the signalling handler's
  // span when we are inside that same trace, else the ref's recorded
  // parent (covers signalling from a plain application thread).
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  if (trace_ != nullptr) {
    const tracing::TraceContext ambient =
        trace_->current(marcel::this_thread::self());
    trace = ref.trace_id != 0 ? ref.trace_id
            : ambient.valid() ? ambient.trace_id
                              : 0;
    if (trace != 0) {
      const std::uint64_t parent =
          ambient.valid() && ambient.trace_id == trace
              ? ambient.parent_span_id
              : ref.parent_span_id;
      span = trace_->new_span();
      trace_->record(trace, span, parent, tracing::EventKind::kSignalSent, 0,
                     core_.fabric().engine().now());
    }
  }
  if (ref.home == node_id()) {
    if (trace != 0) {
      trace_->record(trace, span, 0, tracing::EventKind::kSignalDelivered, 0,
                     core_.fabric().engine().now());
    }
    deliver_signal(ref.id, delta);
    return;
  }
  OutMsg* m = acquire_out();
  const SignalMsg sm{ref.id, trace, span, delta, 0};
  if (trace != 0) core_.set_next_trace(trace, span);
  m->pack.emplace(core_, ref.home, kSigTag);
  m->pack->add({reinterpret_cast<const std::byte*>(&sm), sizeof sm});
  finish_send(m->pack->send(), m);
}

void Engine::finish_send(nm::Request* req, OutMsg* m) {
  if (core_.server() != nullptr) {
    // Offloaded: fire and forget, recycle the staging whenever the
    // engine finishes with it.
    core_.set_continuation(req, {[](void* ctx, std::uint32_t slot) {
                                   auto* self = static_cast<Engine*>(ctx);
                                   self->send_done(self->out_pool_[slot].get());
                                 },
                                 this, m->slot});
    return;
  }
  // App-driven baseline: progression only happens inside library calls,
  // so drive the send to completion here ("the message is sent inside
  // the wait function") — otherwise a fire-and-forget call issued by a
  // thread that never re-enters the library would sit in the gate queue
  // forever.  For eager messages this returns at wire injection; a
  // rendezvous send spans the whole handshake, and its matching receive
  // is posted by this engine's own pump (a self-call most starkly: the
  // RTS lands back on this node) — so interleave drain(), not bare
  // core wait, or the handshake never completes.
  const auto& cfg = core_.config();
  while (!core_.test(req)) {
    const bool progressed = drain();
    if (!progressed && cfg.app_poll_gap > 0) {
      marcel::this_thread::compute(cfg.app_poll_gap);
    }
  }
  send_done(m);
}

void Engine::send_done(OutMsg* m) {
  // Recording is a plain push_back, so this is legal from a continuation's
  // engine context.
  if (m->trace_id != 0 && trace_ != nullptr) {
    trace_->record(m->trace_id, m->span_id, 0, tracing::EventKind::kSendDone,
                   m->service, core_.fabric().engine().now());
  }
  release_out(m);
}

// --------------------------------------------------- completion registry

std::uint64_t Engine::register_completion(Completion* c) {
  ++stats_.completions_created;
  const std::uint64_t id = next_completion_id_++;
  completions_.emplace(id, c);
  return id;
}

void Engine::unregister_completion(std::uint64_t id) {
  const std::size_t erased = completions_.erase(id);
  PM2_ASSERT(erased == 1);
}

void Engine::deliver_signal(std::uint64_t id, std::uint32_t delta) {
  const auto it = completions_.find(id);
  PM2_ASSERT_MSG(it != completions_.end(),
                 "signal for an unknown (destroyed?) completion");
  ++stats_.signals_delivered;
  it->second->deliver(delta);
}

// ----------------------------------------------------------- receive path

bool Engine::drain() {
  bool any = pump();
  if (dispatch_inbox()) any = true;
  reap_handlers();
  return any;
}

bool Engine::pump() {
  bool any = false;
  while (auto key = core_.pop_rpc_pending()) {
    const auto [src, tag] = *key;
    // The core purges pending entries when an irecv claims the buffered
    // message, so a popped entry always has one still in the store; this
    // inner loop may consume several buffered messages of the channel in
    // one go (their own entries are purged by the irecvs it posts), with
    // probe_size() sizing each receive.
    while (const auto size = core_.probe_size(src, tag)) {
      InMsg* m = acquire_in();
      m->buf.resize(*size);
      m->src = src;
      m->tag = tag;
      // Arrival time of the buffered message about to be matched — it
      // backdates the server span to the unexpected-store entry, making
      // the store dwell a visible critical-path segment.
      m->arrived_at = core_.probe_arrival(src, tag).value_or(0);
      nm::Request* req = core_.irecv(src, tag, m->buf);
      // Eager: the unexpected store satisfies the irecv inline and the
      // continuation fires right here.  Rendezvous: it fires from
      // whatever context finishes the transfer — engine context
      // included — so enqueue() must neither block nor charge.
      core_.set_continuation(req, {[](void* ctx, std::uint32_t slot) {
                                     auto* self = static_cast<Engine*>(ctx);
                                     self->enqueue(self->in_pool_[slot].get());
                                   },
                                   this, m->slot});
      any = true;
    }
  }
  return any;
}

void Engine::enqueue(InMsg* m) {
  m->enqueued_at = core_.fabric().engine().now();
  inbox_.push_back(m);
  if (inbox_.size() > stats_.queue_depth_max) {
    stats_.queue_depth_max = inbox_.size();
  }
  if (core_.server() != nullptr) core_.server()->notify_work();
}

bool Engine::dispatch_inbox() {
  // Pop-before-execute: dispatch can suspend (spawn bookkeeping, future
  // charges), during which other fibers may run this same loop.
  bool any = false;
  while (!inbox_.empty()) {
    InMsg* m = inbox_.front();
    inbox_.pop_front();
    any = true;
    if (m->tag == kSigTag) {
      PM2_ASSERT_MSG(m->buf.size() == sizeof(SignalMsg),
                     "malformed rpc signal message");
      SignalMsg sm;
      std::memcpy(&sm, m->buf.data(), sizeof sm);
      if (sm.trace_id != 0 && trace_ != nullptr) {
        // Delivery instant == Completion::done_at(), so an assembled
        // trace's end reconstructs the benched latency exactly.
        trace_->record(sm.trace_id, sm.span_id, 0,
                       tracing::EventKind::kSignalDelivered, 0,
                       core_.fabric().engine().now());
      }
      deliver_signal(sm.id, sm.delta);
      release_in(m);
    } else {
      dispatch_request(m);
    }
  }
  return any;
}

void Engine::dispatch_request(InMsg* m) {
  PM2_ASSERT_MSG(m->buf.size() >= sizeof(MsgHeader),
                 "malformed rpc request (short header)");
  MsgHeader hdr;
  std::memcpy(&hdr, m->buf.data(), sizeof hdr);
  PM2_ASSERT_MSG(m->buf.size() == sizeof hdr + hdr.arg_bytes,
                 "rpc request length does not match its header");
  const auto it = services_.find(hdr.service);
  PM2_ASSERT_MSG(it != services_.end(),
                 "rpc dispatch: service not registered on this node");
  ++stats_.dispatched;
  if (dispatch_ns_ != nullptr) {
    const SimTime now = core_.fabric().engine().now();
    dispatch_ns_->add(static_cast<std::uint64_t>(now - hdr.issued_ns));
  }
  ++stats_.handler_spawns;
  // Open the server span, backdated to the wire arrival: the span's
  // interior marks expose where a slow request actually waited (the
  // unexpected store vs the dispatch queue vs the handler itself).
  tracing::TraceContext hctx;
  if (trace_ != nullptr && hdr.trace_id != 0) {
    const SimTime now = core_.fabric().engine().now();
    const std::uint64_t srv_span = trace_->new_span();
    trace_->record(hdr.trace_id, srv_span, hdr.span_id,
                   tracing::EventKind::kWireRx, hdr.service,
                   m->arrived_at != 0 ? m->arrived_at : now);
    trace_->record(hdr.trace_id, srv_span, 0, tracing::EventKind::kEnqueued,
                   hdr.service, m->enqueued_at != 0 ? m->enqueued_at : now);
    trace_->record(hdr.trace_id, srv_span, 0,
                   tracing::EventKind::kDispatched, hdr.service, now);
    hctx = tracing::TraceContext{hdr.trace_id, srv_span};
  }
  // The map node is stable; capture a pointer, not a copy of the functor.
  const Handler* handler = &it->second;
  marcel::Thread& t = core_.node().spawn(
      [this, m, handler, hdr, hctx] {
        const SimTime t0 = core_.fabric().engine().now();
        if (hctx.valid()) {
          trace_->record(hctx.trace_id, hctx.parent_span_id, 0,
                         tracing::EventKind::kHandlerBegin, hdr.service, t0);
          // Adopt the context so calls and signals issued by the handler
          // body parent to this server span with no explicit plumbing.
          trace_->adopt(marcel::this_thread::self(), hctx);
        }
        Context ctx(*this, hdr.origin, hdr.service,
                    std::span<const std::byte>(m->buf).subspan(
                        sizeof(MsgHeader)),
                    hctx);
        (*handler)(ctx);
        if (handler_ns_ != nullptr) {
          handler_ns_->add(static_cast<std::uint64_t>(
              core_.fabric().engine().now() - t0));
        }
        if (hctx.valid()) {
          trace_->record(hctx.trace_id, hctx.parent_span_id, 0,
                         tracing::EventKind::kHandlerEnd, hdr.service,
                         core_.fabric().engine().now());
          trace_->drop(marcel::this_thread::self());
        }
        ++stats_.handlers_done;
        release_in(m);
      },
      marcel::Priority::kNormal, "rpc:handler", /*cpu_hint=*/-1);
  handler_threads_.push_back(&t);
}

void Engine::reap_handlers() {
  // Handler threads are fire-and-forget (nobody joins them); recycle the
  // finished ones so a long service run does not accumulate dead stacks.
  std::erase_if(handler_threads_, [this](marcel::Thread* t) {
    if (!t->finished()) return false;
    core_.node().reap(*t);
    return true;
  });
}

// ------------------------------------------------------------ progression

bool Engine::progress(marcel::Cpu& cpu) {
  bool any = drain();
  if (piom::Server* server = core_.server(); server != nullptr) {
    if (server->progress_once()) any = true;
  } else {
    if (core_.progress(cpu)) any = true;
  }
  return any;
}

void Engine::serve_until_handlers_done(std::uint64_t target) {
  core_.poll_until([this, target] { return stats_.handlers_done >= target; },
                   [this](marcel::Cpu& cpu) { return progress(cpu); });
}

// ---------------------------------------------------------------- pools

Engine::OutMsg* Engine::acquire_out() {
  if (!out_free_.empty()) {
    OutMsg* m = out_free_.back();
    out_free_.pop_back();
    m->pack.reset();
    // Clear stale lineage: only call() re-stamps it, and a recycled
    // request OutMsg must not make a signal send close a dead span.
    m->trace_id = 0;
    m->span_id = 0;
    m->service = 0;
    return m;
  }
  out_pool_.push_back(std::make_unique<OutMsg>());
  out_pool_.back()->slot = static_cast<std::uint32_t>(out_pool_.size() - 1);
  return out_pool_.back().get();
}

void Engine::release_out(OutMsg* m) { out_free_.push_back(m); }

Engine::InMsg* Engine::acquire_in() {
  if (!in_free_.empty()) {
    InMsg* m = in_free_.back();
    in_free_.pop_back();
    return m;
  }
  in_pool_.push_back(std::make_unique<InMsg>());
  in_pool_.back()->slot = static_cast<std::uint32_t>(in_pool_.size() - 1);
  return in_pool_.back().get();
}

void Engine::release_in(InMsg* m) { in_free_.push_back(m); }

// --------------------------------------------------------------- metrics

void Engine::bind_metrics(MetricsRegistry& registry,
                          std::string_view prefix) {
  const std::string p(prefix);
  registry.bind_counter(p + "/issued", &stats_.issued);
  registry.bind_counter(p + "/dispatched", &stats_.dispatched);
  registry.bind_counter(p + "/handler_spawns", &stats_.handler_spawns);
  registry.bind_counter(p + "/handlers_done", &stats_.handlers_done);
  registry.bind_counter(p + "/completions_created",
                        &stats_.completions_created);
  registry.bind_counter(p + "/completions_done", &stats_.completions_done);
  registry.bind_counter(p + "/signals_sent", &stats_.signals_sent);
  registry.bind_counter(p + "/signals_delivered", &stats_.signals_delivered);
  registry.bind_counter(p + "/queue_depth_max", &stats_.queue_depth_max);
  registry.bind_gauge(p + "/queue_depth", [this] {
    return static_cast<double>(inbox_.size());
  });
  handler_ns_ = &registry.histogram(p + "/handler_ns");
  dispatch_ns_ = &registry.histogram(p + "/dispatch_ns");
}

}  // namespace pm2::rpc
