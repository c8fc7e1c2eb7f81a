// Nonblocking collective engine: schedule-DAG collectives progressed by
// idle cores.
//
// Each operation (ibarrier, ibcast, iallreduce_sum, ...) compiles into a
// schedule DAG of primitive ops — send, recv, local-reduce, copy — with
// explicit data/anti dependencies.  The DAG is *executed by completion
// events*: when a constituent send/recv completes, its continuation
// (Core::set_continuation) marks the dependents ready, and whatever core
// the PIOMan server next runs — an idle core's poll fiber, a tasklet, a
// waiter — issues them.  Between icoll() and wait() the calling thread is
// not involved at all, so a compute phase overlaps the whole collective
// (§2.2 offloaded submission, §2.3 asynchronous progression, applied one
// layer up).
//
// Tag discipline: every matched (send, recv) pair in a schedule gets its
// own tag from the engine's reserved band (Core::alloc_coll_tags), so DAG
// ops can be issued in any order on any core without perturbing the
// per-(peer, tag) FIFO sequence matching underneath.  Ranks allocate tag
// blocks in lockstep because collectives are called in the same order
// everywhere (MPI semantics).  Core relies on the one-pair-per-tag rule:
// coll-band tags get seq 0 and no sequence cursor (Core::coll_seq_free),
// and a second receive posted on one (src, tag) aborts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cond.hpp"
#include "nmad/core.hpp"
#include "pm2/tracing/tracing.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::nm::coll {

using Algo = CollAlgo;

/// One primitive node of a schedule DAG.  A schedule holds one per
/// send/recv/reduce/copy (2n−1 for an n-rank ring allgather), so the
/// buffers are one pointer pair plus a byte length shared by every kind.
struct Op {
  enum class Kind : std::uint8_t { kSend, kRecv, kReduce, kCopy };

  Kind kind = Kind::kCopy;
  std::uint16_t round = 0;  // stage-stamp bucket (CollRequest::rounds())
  unsigned peer = 0;        // send/recv: remote rank
  Tag tag = 0;              // send/recv: wire tag (unique per matched pair)
  std::uint32_t deps = 0;   // unsatisfied predecessor count

  // send: src; recv: dst; copy: src → dst; reduce: dst += src, both read
  // as len / sizeof(double) doubles.
  const std::byte* src = nullptr;
  std::byte* dst = nullptr;
  std::size_t len = 0;  // bytes

  std::uint64_t span = 0;  // causal-trace coll.op span (0 = off)
};

static_assert(sizeof(Op) <= 48, "coll::Op is allocated per DAG node");

inline constexpr std::uint32_t kNoOp = 0xffffffffu;

class Engine;

/// A DAG under construction.  Builder methods return the op's index;
/// dep(a, b) records "b cannot start before a completed" — used both for
/// true data dependencies (reduce after recv) and for anti dependencies
/// (do not overwrite a buffer an in-flight send still reads).
///
/// Successor lists live in one flat array per schedule, not one vector per
/// op: seal() turns the recorded dep() edges into a CSR (a stable counting
/// sort by predecessor), so each op's successors keep their dep() order and
/// a reused schedule allocates nothing once its buffers are warm.
class Schedule {
 public:
  std::uint32_t send(unsigned peer, Tag tag, std::span<const std::byte> data,
                     std::uint16_t round);
  std::uint32_t recv(unsigned peer, Tag tag, std::span<std::byte> buffer,
                     std::uint16_t round);
  std::uint32_t reduce(std::span<double> acc, std::span<const double> addend,
                       std::uint16_t round);
  std::uint32_t copy(std::span<std::byte> dst, std::span<const std::byte> src,
                     std::uint16_t round);
  void dep(std::uint32_t before, std::uint32_t after);

  /// Build the successor array from the dep() edges; call after the last
  /// builder call and before successors().
  void seal();

  /// Ops unlocked by `idx`'s completion, in dep() order (valid after seal).
  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::uint32_t idx) const noexcept {
    return {succ_.data() + succ_begin_[idx],
            succ_.data() + succ_begin_[idx + 1]};
  }

  /// Empty the schedule for reuse, keeping every buffer's capacity.
  void clear() noexcept;

  std::vector<Op> ops;

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  // dep() log
  std::vector<std::uint32_t> succ_begin_;  // CSR offsets, ops.size() + 1
  std::vector<std::uint32_t> succ_;        // successors, grouped by op
};

/// Handle for one in-flight collective; obtained from Engine::i*, consumed
/// by Engine::wait / Engine::test (which recycle it).
class CollRequest {
 public:
  CollRequest() = default;
  CollRequest(const CollRequest&) = delete;
  CollRequest& operator=(const CollRequest&) = delete;

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] Algo algo() const noexcept { return algo_; }
  [[nodiscard]] SimTime issued_at() const noexcept { return issued_at_; }

  /// Per-round stage stamps: when the first op of the round was issued and
  /// when its last op completed.  Rounds of a pipelined schedule overlap —
  /// that overlap *is* the streaming the chunked algorithms buy.
  struct Round {
    SimTime first_issue = 0;
    SimTime last_done = 0;
  };
  [[nodiscard]] const std::vector<Round>& rounds() const noexcept {
    return rounds_;
  }

 private:
  friend class Engine;

  Engine* engine_ = nullptr;  // owner, for the ops' nm continuations
  Schedule sched_;
  std::vector<std::byte> scratch_;   // barrier token/sinks; Bruck blocks
  std::vector<double> scratch_d_;    // reduce inboxes
  std::vector<Round> rounds_;
  std::uint32_t remaining_ = 0;
  bool done_ = false;
  // scratch_ holds a block per rank (Bruck): freed when the collective
  // completes.
  bool scratch_per_rank_ = false;
  std::optional<piom::Cond> cond_;
  Algo algo_ = Algo::kAuto;
  SimTime issued_at_ = 0;
  // Causal trace of this collective on this rank (0 = tracing off): the
  // root "coll" span every coll.op span parents to.
  std::uint64_t trace_id_ = 0;
  std::uint64_t root_span_ = 0;
};

/// Per-rank collective engine on top of one nm::Core.  Registers a poll
/// source with the core's PIOMan server so idle cores drain ready DAG ops;
/// in app-driven mode the wait path drains instead (and, true to the
/// baseline, nothing progresses while the caller computes).
class Engine {
 public:
  /// `world` is the communicator size; the rank is core.node_id().
  /// Reads PM2_COLL_ALGO ("auto", "ring", "rd", "binomial", "pipeline",
  /// "linear") as an override of config().coll_algo.
  Engine(Core& core, unsigned world);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] unsigned rank() const noexcept { return core_.node_id(); }
  [[nodiscard]] unsigned world() const noexcept { return world_; }
  [[nodiscard]] Core& core() noexcept { return core_; }

  // ---- nonblocking collectives ----
  //
  // All ranks must call the same collectives in the same order with
  // consistent sizes/roots/algos.  Buffers must stay valid until the
  // request completes.  Multiple collectives may be in flight at once.

  [[nodiscard]] CollRequest* ibarrier();
  [[nodiscard]] CollRequest* ibcast(std::span<std::byte> buffer, int root,
                                    Algo algo = Algo::kAuto);
  [[nodiscard]] CollRequest* iallreduce_sum(std::span<double> data,
                                            Algo algo = Algo::kAuto);
  [[nodiscard]] CollRequest* igather(std::span<const std::byte> send,
                                     std::span<std::byte> recv, int root);
  [[nodiscard]] CollRequest* iscatter(std::span<const std::byte> send,
                                      std::span<std::byte> recv, int root);
  [[nodiscard]] CollRequest* iallgather(std::span<const std::byte> send,
                                        std::span<std::byte> recv);
  [[nodiscard]] CollRequest* ialltoall(std::span<const std::byte> send,
                                       std::span<std::byte> recv,
                                       std::size_t block);

  /// Block until `req` completes, then recycle it.  In PIOMan mode the
  /// waiter participates in polling (so a wait never stalls the DAG); in
  /// app-driven mode the waiter performs the whole execution itself.
  void wait(CollRequest* req);

  /// Non-blocking completion check; true recycles the request.
  [[nodiscard]] bool test(CollRequest* req);

  /// The algorithm the autotuner would pick (after the config/env forcing
  /// is applied) — exposed for benchmarks and tests.
  [[nodiscard]] Algo choose_bcast(std::size_t bytes) const noexcept;
  [[nodiscard]] Algo choose_allreduce(std::size_t bytes) const noexcept;
  /// kRecursiveDoubling means Bruck's allgather; `block` is per rank.
  [[nodiscard]] Algo choose_allgather(std::size_t block) const noexcept;

  struct Stats {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t ops_executed = 0;
    std::uint64_t ops_send = 0;
    std::uint64_t ops_recv = 0;
    std::uint64_t ops_reduce = 0;
    std::uint64_t ops_copy = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_reduced = 0;
    std::uint64_t algo_dissemination = 0;
    std::uint64_t algo_binomial = 0;
    std::uint64_t algo_binomial_pipeline = 0;
    std::uint64_t algo_ring = 0;
    std::uint64_t algo_recursive_doubling = 0;
    std::uint64_t algo_linear = 0;
    std::uint64_t tag_blocks = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Capacity of the staging buffers this engine's requests hold, live
  /// and pooled, in bytes.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  /// Bind every counter above into `registry` under `prefix` (e.g.
  /// "node0/coll"), following the subsystem convention.
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

  /// Attach this rank's causal-trace recorder (nullptr = tracing off).
  /// Each rank's schedule then runs as its own trace: a "coll" root span
  /// plus one "coll.op" span per DAG primitive.
  void set_tracing(pm2::tracing::Recorder* recorder) noexcept {
    trace_ = recorder;
  }

 private:
  // -- request pooling --
  CollRequest* acquire(Algo algo);
  void release(CollRequest* req);

  // -- executor --
  void launch(CollRequest* req);
  bool drain();
  void execute(CollRequest* req, std::uint32_t idx);
  void op_done(CollRequest* req, std::uint32_t idx);
  /// The nm continuation of a send/recv op: op_done(ctx, idx).
  [[nodiscard]] static Continuation op_continuation(CollRequest* req,
                                                    std::uint32_t idx);
  void finish(CollRequest* req);
  void charge_local(std::size_t bytes);

  // -- schedule compilers (algorithms.cpp) --
  void build_barrier(CollRequest& cr);
  void build_bcast(CollRequest& cr, std::span<std::byte> buffer, int root,
                   std::size_t chunks);
  void build_allreduce_ring(CollRequest& cr, std::span<double> data);
  void build_allreduce_rd(CollRequest& cr, std::span<double> data);
  void build_gather(CollRequest& cr, std::span<const std::byte> send,
                    std::span<std::byte> recv, int root);
  void build_scatter(CollRequest& cr, std::span<const std::byte> send,
                     std::span<std::byte> recv, int root);
  void build_allgather(CollRequest& cr, std::span<const std::byte> send,
                       std::span<std::byte> recv);
  void build_allgather_bruck(CollRequest& cr, std::span<const std::byte> send,
                             std::span<std::byte> recv);
  void build_alltoall(CollRequest& cr, std::span<const std::byte> send,
                      std::span<std::byte> recv, std::size_t block);

  /// Tag-block reservation for one schedule (counted for telemetry).
  [[nodiscard]] Tag alloc_tags(std::uint32_t count);

  /// Chunk count for `bytes` under the pipelining granularity.
  [[nodiscard]] std::uint32_t chunk_count(std::size_t bytes) const noexcept;

  Core& core_;
  unsigned world_;
  Algo forced_;  // config/env override (kAuto = autotune per operation)

  // The drain source exists only while collectives are in flight — every
  // registered source is charged per poll round, and a dormant engine
  // must be free for unrelated traffic.
  unsigned inflight_ = 0;
  int source_id_ = 0;

  std::deque<std::pair<CollRequest*, std::uint32_t>> ready_;
  std::deque<std::unique_ptr<CollRequest>> pool_;
  std::vector<CollRequest*> freelist_;
  Stats stats_;
  pm2::tracing::Recorder* trace_ = nullptr;  // null = tracing off
};

}  // namespace pm2::nm::coll
