// Schedule-DAG executor: launches a compiled collective, then lets engine
// completion events carry it — each finished send/recv marks its DAG
// successors ready, and the engine's PIOMan poll source (run by idle
// cores, tasklets or waiters) issues them.  The caller's only inline work
// is the initial dependency-free wave.
#include "nmad/coll/coll.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"

namespace pm2::nm::coll {
namespace {

/// Autotuner: largest per-rank allgather block sent through Bruck.
constexpr std::size_t kBruckMaxBlock = 1024;

}  // namespace

// ------------------------------------------------------------- Schedule

std::uint32_t Schedule::send(unsigned peer, Tag tag,
                             std::span<const std::byte> data,
                             std::uint16_t round) {
  Op op;
  op.kind = Op::Kind::kSend;
  op.peer = peer;
  op.tag = tag;
  op.src = data.data();
  op.len = data.size();
  op.round = round;
  ops.push_back(op);
  return static_cast<std::uint32_t>(ops.size() - 1);
}

std::uint32_t Schedule::recv(unsigned peer, Tag tag,
                             std::span<std::byte> buffer,
                             std::uint16_t round) {
  Op op;
  op.kind = Op::Kind::kRecv;
  op.peer = peer;
  op.tag = tag;
  op.dst = buffer.data();
  op.len = buffer.size();
  op.round = round;
  ops.push_back(op);
  return static_cast<std::uint32_t>(ops.size() - 1);
}

std::uint32_t Schedule::reduce(std::span<double> acc,
                               std::span<const double> addend,
                               std::uint16_t round) {
  PM2_ASSERT(acc.size() == addend.size());
  Op op;
  op.kind = Op::Kind::kReduce;
  op.dst = std::as_writable_bytes(acc).data();
  op.src = std::as_bytes(addend).data();
  op.len = acc.size_bytes();
  op.round = round;
  ops.push_back(op);
  return static_cast<std::uint32_t>(ops.size() - 1);
}

std::uint32_t Schedule::copy(std::span<std::byte> dst,
                             std::span<const std::byte> src,
                             std::uint16_t round) {
  PM2_ASSERT(dst.size() >= src.size());
  Op op;
  op.kind = Op::Kind::kCopy;
  op.dst = dst.data();
  op.src = src.data();
  op.len = src.size();
  op.round = round;
  ops.push_back(op);
  return static_cast<std::uint32_t>(ops.size() - 1);
}

void Schedule::dep(std::uint32_t before, std::uint32_t after) {
  PM2_ASSERT(before < ops.size() && after < ops.size() && before != after);
  edges_.emplace_back(before, after);
  ++ops[after].deps;
}

void Schedule::seal() {
  // Counting sort of the edges by predecessor.  Count into begin[a + 1],
  // prefix-sum so begin[a] is a's first slot, then place edges in dep()
  // order, bumping begin[a] as a fill cursor — which leaves begin[a] at
  // a's end, i.e. one row ahead; the final shift restores the offsets.
  const std::size_t n = ops.size();
  succ_begin_.assign(n + 1, 0);
  for (const auto& e : edges_) ++succ_begin_[e.first + 1];
  for (std::size_t i = 0; i < n; ++i) succ_begin_[i + 1] += succ_begin_[i];
  succ_.resize(edges_.size());
  for (const auto& e : edges_) succ_[succ_begin_[e.first]++] = e.second;
  for (std::size_t i = n; i > 0; --i) succ_begin_[i] = succ_begin_[i - 1];
  succ_begin_[0] = 0;
}

void Schedule::clear() noexcept {
  ops.clear();
  edges_.clear();
  succ_begin_.clear();
  succ_.clear();
}

// ------------------------------------------------------- Engine lifecycle

Engine::Engine(Core& core, unsigned world)
    : core_(core), world_(world), forced_(core.config().coll_algo) {
  PM2_ASSERT(world_ >= 1);
  if (const char* env = std::getenv("PM2_COLL_ALGO");
      env != nullptr && *env != '\0') {
    const std::string_view v(env);
    if (v == "auto") {
      forced_ = Algo::kAuto;
    } else if (v == "ring") {
      forced_ = Algo::kRing;
    } else if (v == "rd") {
      forced_ = Algo::kRecursiveDoubling;
    } else if (v == "binomial") {
      forced_ = Algo::kBinomial;
    } else if (v == "pipeline") {
      forced_ = Algo::kBinomialPipeline;
    } else if (v == "linear") {
      forced_ = Algo::kLinear;
    } else {
      PM2_WARN("PM2_COLL_ALGO=%s not recognised; keeping config value", env);
    }
  }
}

Engine::~Engine() {
  PM2_ASSERT_MSG(ready_.empty() && inflight_ == 0,
                 "collective engine destroyed mid-schedule");
}

// ------------------------------------------------------- request pooling

CollRequest* Engine::acquire(Algo algo) {
  CollRequest* cr;
  if (!freelist_.empty()) {
    cr = freelist_.back();
    freelist_.pop_back();
  } else {
    pool_.push_back(std::make_unique<CollRequest>());
    cr = pool_.back().get();
  }
  cr->engine_ = this;
  cr->sched_.clear();
  cr->scratch_.clear();
  cr->scratch_d_.clear();
  cr->scratch_per_rank_ = false;
  cr->rounds_.clear();
  cr->remaining_ = 0;
  cr->done_ = false;
  cr->algo_ = algo;
  cr->trace_id_ = 0;
  cr->root_span_ = 0;
  if (core_.server() != nullptr) {
    if (cr->cond_.has_value()) {
      cr->cond_->reset();
    } else {
      cr->cond_.emplace(*core_.server());
    }
  }
  return cr;
}

std::size_t Engine::scratch_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& cr : pool_) {
    bytes += cr->scratch_.capacity() +
             cr->scratch_d_.capacity() * sizeof(double);
  }
  return bytes;
}

void Engine::release(CollRequest* cr) {
  PM2_ASSERT(cr != nullptr && cr->done_);
  freelist_.push_back(cr);
}

// ------------------------------------------------------------- executor

void Engine::launch(CollRequest* cr) {
  ++stats_.started;
  cr->issued_at_ = core_.fabric().engine().now();
  cr->sched_.seal();
  cr->remaining_ = static_cast<std::uint32_t>(cr->sched_.ops.size());
  if (trace_ != nullptr) {
    // Each rank runs its own trace (ranks launch independently; there is
    // no cross-rank parent to adopt).  A collective issued from a traced
    // RPC handler, though, continues that handler's trace.
    const pm2::tracing::TraceContext ambient =
        trace_->current(marcel::this_thread::self());
    cr->trace_id_ = ambient.valid() ? ambient.trace_id : trace_->new_trace();
    cr->root_span_ = trace_->new_span();
    trace_->record(cr->trace_id_, cr->root_span_, ambient.parent_span_id,
                   pm2::tracing::EventKind::kCollStart,
                   static_cast<std::uint32_t>(cr->algo_), cr->issued_at_);
  }
  piom::Server* server = core_.server();
  if (server != nullptr) {
    // The drain source is registered only while collectives are in
    // flight: every registered source is charged ltask_poll_cost on every
    // poll round, and a dormant engine must not tax unrelated
    // point-to-point traffic (launch always runs on an application
    // thread, so this never mutates the registry from inside a poll
    // round).  Armed requests keep idle cores polling, so no work probe.
    if (inflight_++ == 0) {
      source_id_ = server->add_source({
          .name = "coll",
          .poll = [this](marcel::Cpu&) { return drain(); },
          .poll_empty = [this] { return ready_.empty(); },
      });
    }
    server->arm();
  }
  if (cr->remaining_ == 0) {
    finish(cr);
    return;
  }
  std::uint32_t roots = 0;
  for (std::uint32_t i = 0; i < cr->sched_.ops.size(); ++i) {
    if (cr->sched_.ops[i].deps == 0) {
      ready_.emplace_back(cr, i);
      ++roots;
    }
  }
  PM2_ASSERT_MSG(roots > 0, "schedule DAG has a dependency cycle");
  // Issue the dependency-free wave inline (the caller holds a CPU anyway);
  // everything after this is carried by completion events.
  drain();
}

bool Engine::drain() {
  // Pop-before-execute hands each op to exactly one fiber: execute() can
  // suspend (CPU charges, offloaded submissions), during which other
  // fibers run this same loop concurrently.
  bool any = false;
  while (!ready_.empty()) {
    const auto [cr, idx] = ready_.front();
    ready_.pop_front();
    execute(cr, idx);
    any = true;
  }
  return any;
}

void Engine::execute(CollRequest* cr, std::uint32_t idx) {
  // `ops` is never resized after launch, so the reference survives the
  // suspension points below.
  Op& op = cr->sched_.ops[idx];
  CollRequest::Round& round = cr->rounds_[op.round];
  if (round.first_issue == 0) {
    round.first_issue = core_.fabric().engine().now();
  }
  ++stats_.ops_executed;
  if (cr->trace_id_ != 0) {
    // One coll.op span per DAG primitive, parented to the rank's root
    // coll span; service carries the op kind for segment attribution.
    op.span = trace_->new_span();
    trace_->record(cr->trace_id_, op.span, cr->root_span_,
                   pm2::tracing::EventKind::kCollOpIssued,
                   static_cast<std::uint32_t>(op.kind),
                   core_.fabric().engine().now());
  }
  switch (op.kind) {
    case Op::Kind::kSend: {
      ++stats_.ops_send;
      stats_.bytes_sent += op.len;
      if (cr->trace_id_ != 0) core_.set_next_trace(cr->trace_id_, op.span);
      Request* req = core_.isend(op.peer, op.tag, {op.src, op.len});
      core_.set_continuation(req, op_continuation(cr, idx));
      break;
    }
    case Op::Kind::kRecv: {
      ++stats_.ops_recv;
      if (cr->trace_id_ != 0) core_.set_next_trace(cr->trace_id_, op.span);
      Request* req = core_.irecv(op.peer, op.tag, {op.dst, op.len});
      core_.set_continuation(req, op_continuation(cr, idx));
      break;
    }
    case Op::Kind::kReduce: {
      ++stats_.ops_reduce;
      stats_.bytes_reduced += op.len;
      charge_local(op.len);
      // Schedule::reduce stored double spans; read them back as doubles.
      double* acc = reinterpret_cast<double*>(op.dst);
      const double* addend = reinterpret_cast<const double*>(op.src);
      for (std::size_t i = 0; i < op.len / sizeof(double); ++i) {
        acc[i] += addend[i];
      }
      op_done(cr, idx);
      break;
    }
    case Op::Kind::kCopy: {
      ++stats_.ops_copy;
      charge_local(op.len);
      if (op.len != 0) std::memcpy(op.dst, op.src, op.len);
      op_done(cr, idx);
      break;
    }
  }
}

Continuation Engine::op_continuation(CollRequest* cr, std::uint32_t idx) {
  return {[](void* ctx, std::uint32_t i) {
            auto* req = static_cast<CollRequest*>(ctx);
            req->engine_->op_done(req, i);
          },
          cr, idx};
}

void Engine::op_done(CollRequest* cr, std::uint32_t idx) {
  // Runs in whatever context completed the op — possibly raw engine
  // context with no current CPU — so it must neither block nor charge:
  // it only marks dependents ready and kicks idle cores to execute them.
  const Op& op = cr->sched_.ops[idx];
  cr->rounds_[op.round].last_done = core_.fabric().engine().now();
  if (cr->trace_id_ != 0 && op.span != 0) {
    // Plain push_back — legal from raw engine context like the rest of
    // this function.
    trace_->record(cr->trace_id_, op.span, 0,
                   pm2::tracing::EventKind::kCollOpDone,
                   static_cast<std::uint32_t>(op.kind),
                   core_.fabric().engine().now());
  }
  bool newly_ready = false;
  for (const std::uint32_t succ : cr->sched_.successors(idx)) {
    Op& next = cr->sched_.ops[succ];
    PM2_ASSERT(next.deps > 0);
    if (--next.deps == 0) {
      ready_.emplace_back(cr, succ);
      newly_ready = true;
    }
  }
  PM2_ASSERT(cr->remaining_ > 0);
  if (--cr->remaining_ == 0) {
    finish(cr);
  } else if (newly_ready && core_.server() != nullptr) {
    core_.server()->notify_work();
  }
}

void Engine::finish(CollRequest* cr) {
  PM2_ASSERT(!cr->done_);
  cr->done_ = true;
  ++stats_.completed;
  // Bruck's rotated copy holds a block per rank: a pooled request must not
  // keep it for the rest of the run.  The other staging buffers are
  // bounded by rounds and payload, and stay for the next collective.
  if (cr->scratch_per_rank_) {
    std::vector<std::byte>().swap(cr->scratch_);
  }
  if (cr->trace_id_ != 0) {
    trace_->record(cr->trace_id_, cr->root_span_, 0,
                   pm2::tracing::EventKind::kCollDone,
                   static_cast<std::uint32_t>(cr->algo_),
                   core_.fabric().engine().now());
  }
  if (piom::Server* server = core_.server(); server != nullptr) {
    server->disarm();
    // May run from inside our own drain (inline reduce/copy chains) or a
    // core poll round; removal tombstones mid-round, so this is safe from
    // any completion context.
    PM2_ASSERT(inflight_ > 0);
    if (--inflight_ == 0) server->remove_source(source_id_);
    cr->cond_->signal();
  }
}

void Engine::charge_local(std::size_t bytes) {
  const double ns =
      core_.config().copy_ns_per_byte * static_cast<double>(bytes);
  if (ns >= 1.0) {
    marcel::this_thread::compute(static_cast<SimDuration>(ns));
  }
}

// ------------------------------------------------------------ completion

void Engine::wait(CollRequest* cr) {
  PM2_ASSERT(cr != nullptr);
  if (core_.server() != nullptr) {
    // The waiter participates in polling, which includes this engine's
    // drain source — a wait can never stall the DAG it waits on.
    cr->cond_->wait();
  } else {
    // App-driven baseline: the caller performs the whole execution.
    core_.poll_until([cr] { return cr->done_; },
                     [this](marcel::Cpu& cpu) {
                       const bool drained = drain();
                       const bool progressed = core_.progress(cpu);
                       return drained || progressed;
                     });
  }
  release(cr);
}

bool Engine::test(CollRequest* cr) {
  PM2_ASSERT(cr != nullptr);
  if (!cr->done_) {
    if (piom::Server* server = core_.server(); server != nullptr) {
      server->progress_once();
    } else {
      drain();
      core_.progress(marcel::this_thread::cpu());
    }
  }
  if (cr->done_) {
    release(cr);
    return true;
  }
  return false;
}

// ------------------------------------------------------------- autotuner

Algo Engine::choose_bcast(std::size_t bytes) const noexcept {
  if (forced_ == Algo::kBinomial || forced_ == Algo::kBinomialPipeline) {
    return forced_;
  }
  return bytes > core_.config().coll_chunk_bytes ? Algo::kBinomialPipeline
                                                 : Algo::kBinomial;
}

Algo Engine::choose_allreduce(std::size_t bytes) const noexcept {
  if (forced_ == Algo::kRing || forced_ == Algo::kRecursiveDoubling) {
    return forced_;
  }
  // Tiny payloads: recursive doubling, ⌈log2 n⌉ rounds beat the ring's
  // 2(n-1) steps when latency dominates.  Mid sizes: the ring, whose
  // per-step blocks (bytes/n) sit comfortably inside the eager protocol,
  // so its bandwidth optimality materialises as cheap streamed steps.
  // Once a block nears the rendezvous threshold, each of the 2(n-1)
  // steps pays a heavyweight transfer and the chunk-pipelined recursive
  // doubling wins despite moving more bytes — measured, not textbook
  // (at the boundary block size the ring already loses 3x at n=8): see
  // bench/collectives.
  if (bytes <= core_.config().coll_rd_max_bytes) {
    return Algo::kRecursiveDoubling;
  }
  const std::size_t block = (bytes + world_ - 1) / std::max(world_, 1u);
  return block * 2 <= core_.config().rdv_threshold ? Algo::kRing
                                                   : Algo::kRecursiveDoubling;
}

Algo Engine::choose_allgather(std::size_t block) const noexcept {
  if (forced_ == Algo::kRing || forced_ == Algo::kRecursiveDoubling) {
    return forced_;
  }
  // Small blocks: Bruck's ⌈log2 n⌉ rounds beat the ring's n-1 dependent
  // steps, and post ⌈log2 n⌉ receives instead of n-1.  Below four ranks
  // Bruck saves no step, and for larger blocks the ring works in place
  // while Bruck stages all n blocks in scratch (and at n = 4 loses from
  // 4 KiB): see bench/collectives.
  return world_ >= 4 && block <= kBruckMaxBlock ? Algo::kRecursiveDoubling
                                                : Algo::kRing;
}

// ----------------------------------------------------------------- misc

Tag Engine::alloc_tags(std::uint32_t count) {
  ++stats_.tag_blocks;
  return core_.alloc_coll_tags(count);
}

std::uint32_t Engine::chunk_count(std::size_t bytes) const noexcept {
  if (bytes == 0) return 0;
  const std::size_t chunk =
      std::max<std::size_t>(1, core_.config().coll_chunk_bytes);
  return static_cast<std::uint32_t>((bytes + chunk - 1) / chunk);
}

void Engine::bind_metrics(MetricsRegistry& registry,
                          std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/started", &stats_.started);
  registry.bind_counter(p + "/completed", &stats_.completed);
  registry.bind_counter(p + "/ops_executed", &stats_.ops_executed);
  registry.bind_counter(p + "/ops_send", &stats_.ops_send);
  registry.bind_counter(p + "/ops_recv", &stats_.ops_recv);
  registry.bind_counter(p + "/ops_reduce", &stats_.ops_reduce);
  registry.bind_counter(p + "/ops_copy", &stats_.ops_copy);
  registry.bind_counter(p + "/bytes_sent", &stats_.bytes_sent);
  registry.bind_counter(p + "/bytes_reduced", &stats_.bytes_reduced);
  registry.bind_counter(p + "/algo/dissemination", &stats_.algo_dissemination);
  registry.bind_counter(p + "/algo/binomial", &stats_.algo_binomial);
  registry.bind_counter(p + "/algo/binomial_pipeline",
                        &stats_.algo_binomial_pipeline);
  registry.bind_counter(p + "/algo/ring", &stats_.algo_ring);
  registry.bind_counter(p + "/algo/recursive_doubling",
                        &stats_.algo_recursive_doubling);
  registry.bind_counter(p + "/algo/linear", &stats_.algo_linear);
  registry.bind_counter(p + "/tag_blocks", &stats_.tag_blocks);
  registry.bind_gauge(p + "/tags_used", [core = &core_] {
    return static_cast<double>(core->coll_tags_used());
  });
}

}  // namespace pm2::nm::coll
