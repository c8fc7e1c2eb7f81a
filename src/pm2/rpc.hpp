// The PM2 RPC service layer (pm2_rawrpc in the original API): typed
// argument marshalling over the Madeleine pack interface, a per-node
// service registry, and dispatch that runs each incoming request in its
// own marcel vthread on the target node.
//
//   // every node, same order:
//   engine.register_service(kPing, [](rpc::Context& ctx) {
//     const std::uint64_t x = ctx.args().u64();
//     const rpc::CompletionRef done = ctx.args().completion();
//     ctx.engine().signal(done);
//   });
//
//   // client:
//   rpc::Completion c(engine);
//   engine.call(server, kPing, [&](rpc::ArgWriter& w) {
//     w.u64(42); w.completion(c.ref());
//   });
//   c.wait();
//
// Wire layout: requests travel on the reserved RPC tag band above the
// collective band (Core::kRpcTagBase; see docs/rpc.md for the band map).
// Receives are *not* preposted — that would keep the PIOMan server armed
// forever.  Instead an inbound request lands in the core's unexpected
// store, the core queues its (src, tag), and the engine's poll source
// (idle cores, with PIOMan; the wait path, app-driven) posts an
// exactly-sized receive after the fact, parses the header, and spawns
// the handler thread.  Requests from one client to one server therefore
// dispatch in issue order (per-(peer, tag) FIFO matching underneath),
// while any number of RPCs can be outstanding across the world.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "nmad/core.hpp"
#include "nmad/pack.hpp"
#include "pm2/completion.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::rpc {

// ------------------------------------------------------------ marshalling

/// Serialises typed arguments into a byte vector (little-endian host
/// layout; every node of the simulated cluster shares it by construction).
class ArgWriter {
 public:
  explicit ArgWriter(std::vector<std::byte>& out) noexcept : out_(out) {}

  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  /// Length-prefixed blob (u32 length + bytes).
  void bytes(std::span<const std::byte> s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void str(std::string_view s) {
    bytes({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }
  /// 28 bytes on the wire: home, id, and the ref's causal lineage (see
  /// CompletionRef).  A fresh ref carries zero lineage; the reader on the
  /// serving node substitutes the enclosing request's context, so the
  /// eventual signal — even after forwarding — closes the right trace.
  void completion(const CompletionRef& ref) {
    u32(ref.home);
    u64(ref.id);
    u64(ref.trace_id);
    u64(ref.parent_span_id);
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::byte>& out_;
};

/// Bounds-checked reader; calls must mirror the writer's order and types.
class ArgReader {
 public:
  explicit ArgReader(std::span<const std::byte> data,
                     tracing::TraceContext ctx = {}) noexcept
      : data_(data), ctx_(ctx) {}

  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return get<std::int64_t>(); }
  [[nodiscard]] double f64() { return get<double>(); }
  /// View into the message buffer: valid for the handler's lifetime.
  [[nodiscard]] std::span<const std::byte> bytes() {
    const std::uint32_t n = u32();
    PM2_ASSERT_MSG(pos_ + n <= data_.size(), "rpc args truncated");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] std::string_view str() {
    const auto s = bytes();
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  [[nodiscard]] CompletionRef completion() {
    CompletionRef ref;
    ref.home = u32();
    ref.id = u64();
    ref.trace_id = u64();
    ref.parent_span_id = u64();
    if (ref.trace_id == 0 && ctx_.valid()) {
      // A fresh (never-forwarded) ref adopts the enclosing request's
      // lineage; a forwarded ref keeps its original trace untouched.
      ref.trace_id = ctx_.trace_id;
      ref.parent_span_id = ctx_.parent_span_id;
    }
    return ref;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  template <typename T>
  [[nodiscard]] T get() {
    PM2_ASSERT_MSG(pos_ + sizeof(T) <= data_.size(), "rpc args truncated");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  tracing::TraceContext ctx_;  // enclosing request's causal lineage
};

// --------------------------------------------------------------- context

class Engine;

/// What a handler sees: who called, the unmarshalling cursor, and the
/// local engine for forwarding calls / signalling completions.
class Context {
 public:
  [[nodiscard]] unsigned origin() const noexcept { return origin_; }
  [[nodiscard]] std::uint32_t service() const noexcept { return service_; }
  [[nodiscard]] ArgReader& args() noexcept { return args_; }
  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  /// The request's causal lineage: its trace, parented to this handler's
  /// server span.  Invalid (trace_id 0) when tracing is off.
  [[nodiscard]] tracing::TraceContext trace() const noexcept { return ctx_; }

 private:
  friend class Engine;
  Context(Engine& engine, unsigned origin, std::uint32_t service,
          std::span<const std::byte> args,
          tracing::TraceContext ctx = {}) noexcept
      : engine_(engine),
        origin_(origin),
        service_(service),
        args_(args, ctx),
        ctx_(ctx) {}

  Engine& engine_;
  unsigned origin_;
  std::uint32_t service_;
  ArgReader args_;
  tracing::TraceContext ctx_;
};

// ---------------------------------------------------------------- engine

/// Per-node RPC engine on top of one nm::Core.  With PIOMan it registers
/// a poll source and a work probe, so inbound requests are dispatched by
/// whatever core is idle; app-driven nodes dispatch inside progress() /
/// Completion::wait() only — true to the baseline, nothing happens while
/// every thread computes.
class Engine {
 public:
  using Handler = std::function<void(Context&)>;
  using Marshal = std::function<void(ArgWriter&)>;

  /// Channel tags inside the reserved band (see Core::kRpcTagBase).
  static constexpr nm::Tag kReqTag = nm::Core::kRpcTagBase;
  static constexpr nm::Tag kSigTag = nm::Core::kRpcTagBase + 1;

  explicit Engine(nm::Core& core);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] nm::Core& core() noexcept { return core_; }
  [[nodiscard]] unsigned node_id() const noexcept { return core_.node_id(); }

  /// Register the handler for `service`.  Every node that can be the
  /// target of a call(id) must register the same id first (dispatch of an
  /// unknown service aborts).  Handlers run as marcel vthreads: they may
  /// compute, block, issue RPCs and signal completions freely.
  void register_service(std::uint32_t service, Handler handler);

  /// Issue an RPC: marshal the arguments (header + args travel as one
  /// Madeleine pack message), fire, forget.  Completion/result plumbing
  /// is the caller's business via Completion refs in the args.
  /// `dst == node_id()` loops through the intra-node channel and
  /// dispatches locally, same path as any remote call.
  void call(unsigned dst, std::uint32_t service, const Marshal& marshal = {});

  /// Signal a (possibly forwarded) completion ref: decrements the
  /// counted completion by `delta`, waking its waiter when it hits zero.
  /// Local refs deliver immediately; remote refs travel on the signal
  /// channel.  Callable from handlers and application threads.
  void signal(const CompletionRef& ref, std::uint32_t delta = 1);

  /// App-driven service loop: progress (dispatching inbound requests and
  /// running core progression) until `target` handlers have finished on
  /// this node.  App-driven server nodes must run this — nothing
  /// dispatches while every thread computes.  Unnecessary with PIOMan
  /// (idle cores serve), but harmless.
  void serve_until_handlers_done(std::uint64_t target);

  /// One dispatch round: post receives for buffered RPC-band messages,
  /// dispatch parsed requests, deliver signals, recycle finished handler
  /// threads, then run core progression.  App-driven nodes call this from
  /// their service loops; with PIOMan it is the registered poll source
  /// and only tests need it directly.  Returns true if anything advanced.
  bool progress(marcel::Cpu& cpu);

  // ---------------- statistics ----------------
  struct Stats {
    std::uint64_t issued = 0;           // call() on this node
    std::uint64_t dispatched = 0;       // requests parsed on this node
    std::uint64_t handler_spawns = 0;   // vthreads spawned (== dispatched)
    std::uint64_t handlers_done = 0;    // handler bodies returned
    std::uint64_t completions_created = 0;
    std::uint64_t completions_done = 0;  // reached zero remaining
    std::uint64_t signals_sent = 0;      // signal() on this node
    std::uint64_t signals_delivered = 0;  // delivered to a local Completion
    std::uint64_t queue_depth_max = 0;   // undispatched-inbox high-water
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Undispatched requests + signals currently queued (the gauge source).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return inbox_.size();
  }

  /// Bind counters and the queue-depth gauge under `prefix` (e.g.
  /// "node0/rpc"), and wire the handler/dispatch latency histograms into
  /// registry-owned storage ("<prefix>/handler_ns", "<prefix>/dispatch_ns").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix);

  /// Attach this node's causal-trace recorder (nullptr = tracing off;
  /// every tracing hook below is one untaken branch).  Owned by the
  /// Cluster, which must outlive the engine.
  void set_tracing(tracing::Recorder* recorder) noexcept {
    trace_ = recorder;
  }
  [[nodiscard]] tracing::Recorder* tracing_recorder() const noexcept {
    return trace_;
  }

 private:
  friend class Completion;

  /// Request-channel wire header, followed by arg_bytes of ArgWriter
  /// output in the same pack message.  trace_id/span_id piggyback the
  /// causal-trace context (0 = untraced); the fields are always present
  /// so traced and untraced runs stay byte-for-byte schedule-identical.
  struct MsgHeader {
    std::uint32_t service = 0;
    std::uint32_t origin = 0;
    std::uint64_t request_id = 0;
    std::int64_t issued_ns = 0;  // virtual clock is cluster-global
    std::uint64_t trace_id = 0;  // causal trace of this request
    std::uint64_t span_id = 0;   // the client's rpc.call span
    std::uint32_t arg_bytes = 0;
    std::uint32_t pad = 0;
  };
  static_assert(sizeof(MsgHeader) == 48);

  /// Signal-channel payload.  trace_id/span_id identify the rpc.signal
  /// span opened on the sending node, closed on delivery here.
  struct SignalMsg {
    std::uint64_t id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint32_t delta = 0;
    std::uint32_t pad = 0;
  };
  static_assert(sizeof(SignalMsg) == 32);

  struct OutMsg {
    std::optional<nm::Pack> pack;  // staging must outlive the send
    std::vector<std::byte> args;   // ArgWriter scratch
    // Causal lineage of a traced *request* send (0 for signals and
    // untraced sends): the send continuation closes the rpc.call span.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint32_t service = 0;
    std::uint32_t slot = 0;  // index in out_pool_ (continuation argument)
  };
  struct InMsg {
    std::vector<std::byte> buf;  // whole message; handler args view it
    unsigned src = 0;
    nm::Tag tag = 0;
    SimTime arrived_at = 0;   // wire arrival (unexpected-store entry)
    SimTime enqueued_at = 0;  // receive completed, pushed on the inbox
    std::uint32_t slot = 0;   // index in in_pool_ (continuation argument)
  };

  // -- completion registry (Completion ctor/dtor) --
  std::uint64_t register_completion(Completion* c);
  void unregister_completion(std::uint64_t id);
  void deliver_signal(std::uint64_t id, std::uint32_t delta);

  // -- send path --
  void finish_send(nm::Request* req, OutMsg* m);
  void send_done(OutMsg* m);  // close the call span, recycle the staging

  // -- receive path --
  bool drain();                // pump + dispatch + reap (the poll source)
  bool pump();                 // pop pending (src, tag), post receives
  void enqueue(InMsg* m);      // continuation target; engine-context safe
  bool dispatch_inbox();       // parse + spawn / deliver
  void dispatch_request(InMsg* m);
  void reap_handlers();

  // -- pools --
  OutMsg* acquire_out();
  void release_out(OutMsg* m);
  InMsg* acquire_in();
  void release_in(InMsg* m);

  nm::Core& core_;
  std::map<std::uint32_t, Handler> services_;
  std::map<std::uint64_t, Completion*> completions_;
  std::uint64_t next_completion_id_ = 1;
  std::uint64_t next_request_id_ = 1;

  std::deque<InMsg*> inbox_;  // arrived, not yet dispatched
  std::vector<marcel::Thread*> handler_threads_;  // live until reaped

  std::vector<std::unique_ptr<OutMsg>> out_pool_;
  std::vector<OutMsg*> out_free_;
  std::vector<std::unique_ptr<InMsg>> in_pool_;
  std::vector<InMsg*> in_free_;

  int source_id_ = 0;  // PIOMan progress source (0 = app-driven)

  Stats stats_;
  Log2Histogram* handler_ns_ = nullptr;   // registry-owned, when bound
  Log2Histogram* dispatch_ns_ = nullptr;
  tracing::Recorder* trace_ = nullptr;    // null = tracing off
};

}  // namespace pm2::rpc
