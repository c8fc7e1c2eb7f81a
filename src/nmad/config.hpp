// NewMadeleine configuration: progression mode, scheduling strategy, and
// protocol thresholds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simtime.hpp"

namespace pm2::nm {

/// Who makes communication progress.
enum class ProgressMode : std::uint8_t {
  /// The original, non-multithreaded NewMadeleine: everything happens on
  /// the application thread, inside isend/irecv/wait.  This is the paper's
  /// baseline ("no copy offloading" / "no RDV progression").
  kAppDriven,
  /// The paper's contribution: submissions are offloaded to idle cores via
  /// PIOMan and the protocol state machines progress in the background.
  kPioman,
};

/// Optimizer/scheduler strategy applied to the outgoing flow (Fig. 3).
enum class StrategyKind : std::uint8_t {
  kFifo,       // one queued pack = one wire packet
  kAggregate,  // coalesce queued small packs to the same gate
  kMultirail,  // stripe large transfers across all rails
};

/// Collective algorithm selector (nmad/coll).  kAuto lets the engine's
/// size/world-count autotuner pick; the PM2_COLL_ALGO environment variable
/// ("auto", "ring", "rd", "binomial", "pipeline", "linear") overrides the
/// config field when a coll::Engine is created.
enum class CollAlgo : std::uint8_t {
  kAuto,
  kDissemination,      // ibarrier (the only barrier algorithm)
  kBinomial,           // ibcast: plain binomial tree
  kBinomialPipeline,   // ibcast: binomial tree, chunk-pipelined
  kRing,               // iallreduce: reduce-scatter + allgather;
                       // iallgather: n-1 neighbour steps
  kRecursiveDoubling,  // iallreduce: log2(n) full-vector exchanges;
                       // iallgather: Bruck, ⌈log2 n⌉ rounds
  kLinear,             // gather/scatter/alltoall flat fan
};

struct Config {
  ProgressMode mode = ProgressMode::kPioman;
  StrategyKind strategy = StrategyKind::kFifo;

  /// Messages strictly larger than this use the rendezvous protocol
  /// (MX uses 32 KiB, §2.3).
  std::size_t rdv_threshold = 32 * 1024;

  /// Adaptive offload (the paper's §5 future work): eager sends strictly
  /// smaller than this are submitted inline even in PIOMan mode — their
  /// injection is cheaper than the ~2 µs offload machinery.  0 keeps the
  /// paper's always-offload behaviour.
  std::size_t offload_min_bytes = 0;

  /// Aggregation strategy: maximum coalesced wire packet payload.
  std::size_t aggregate_max = 8 * 1024;

  /// Multirail strategy: stripe only messages at least this large.
  std::size_t multirail_min = 64 * 1024;

  /// Model the library-wide engine lock (§2.1): every entry into the core
  /// (isend/irecv/progress/flush/probe) serializes on one reentrant
  /// spin-class lock whose contended acquisitions burn virtual CPU time.
  /// The lock profiler reports it as "node<i>/locks/engine"; turning it
  /// off restores the un-serialized (and un-measured) fast path.
  bool engine_lock = true;

  /// Spin granule of a contended engine-lock acquisition.
  SimDuration engine_lock_spin = 50;  // ns

  /// Sharded matching (src/nmad/matching): split the match tables into
  /// this many per-peer×tag-band shards, each behind its own fine-grained
  /// modeled lock ("node<i>/locks/shard<s>", spin = engine_lock_spin),
  /// with lock-free MPSC posting rings on the gates so N threads inject
  /// concurrently.  0 = the paper's single matching path behind the
  /// engine lock; any N > 0 replaces the engine lock (engine_lock is
  /// ignored) with the per-shard light locks.
  unsigned match_shards = 0;

  /// Tag-band granularity of the shard map: tags within the same
  /// 2^tag_band_shift block share a shard (for a fixed peer).  Flows that
  /// must not serialize on one shard lock should space their tags at
  /// least one band apart.
  unsigned tag_band_shift = 3;

  /// One NIC endpoint per virtual core: the Cluster facade sizes the
  /// fabric to cpus_per_node rails and injection/progression prefer the
  /// submitting core's own rail, so concurrent senders do not serialize
  /// on a single link.  Off = the paper's shared per-node NIC.
  bool per_core_endpoints = false;

  /// CPU cost per byte for receive-side copies (NIC buffer → user buffer,
  /// or packet → unexpected-message buffer, §2.2 "receive path").
  double copy_ns_per_byte = 0.35;

  /// Fixed CPU cost of processing one received packet (header parse,
  /// matching).
  SimDuration rx_base_cost = 250;  // ns

  /// Fixed CPU cost of registering a request (isend/irecv bookkeeping).
  SimDuration post_cost = 180;  // ns

  /// Busy-wait pacing of the app-driven wait loop (baseline mode).
  SimDuration app_poll_gap = 300;  // ns

  // ---- reliable-delivery sublayer (nmad/reliable.hpp) ----

  /// Enable the link-level ARQ beneath the core: per-peer sequence
  /// numbers, a receive reorder buffer, cumulative ACKs (piggybacked on
  /// reverse traffic, standalone kAck otherwise), checksum verification,
  /// and retransmission with exponential backoff.  Off = the paper's
  /// lossless fast path, byte-identical to a build without the sublayer.
  bool reliable = false;

  /// Initial retransmission timeout; doubles per retry up to rto_max.
  SimDuration rto_initial = 50 * 1000;   // ns
  SimDuration rto_max = 2 * 1000 * 1000;  // ns

  /// How long to wait for reverse traffic to piggyback a cumulative ACK
  /// before a standalone kAck packet goes out.
  SimDuration ack_delay = 10 * 1000;  // ns

  /// Retransmissions before a packet is abandoned (pathological links);
  /// abandonments are counted, never silent.
  unsigned max_retransmits = 32;

  /// Top-level seed for fault-injection schedules.  The Cluster facade
  /// honours a PM2_FAULT_SEED environment override so lossy CLI/bench
  /// runs are reproducible without recompiling.
  std::uint64_t fault_seed = 0x5eed;

  // ---- nonblocking collective engine (nmad/coll) ----

  /// Forced collective algorithm; kAuto = the engine's autotuner decides
  /// per operation from message size and world count.
  CollAlgo coll_algo = CollAlgo::kAuto;

  /// Pipelining granularity: schedule DAGs cut payloads into chunks of at
  /// most this many bytes so large operations stream through the
  /// rendezvous path instead of serializing round by round.
  std::size_t coll_chunk_bytes = 64 * 1024;

  /// Autotuner: iallreduce payloads at or below this size use recursive
  /// doubling (latency-bound regime).  Above it the ring is picked while
  /// its per-step blocks (payload/n) stay eager; once a block would go
  /// rendezvous, every ring step pays a handshake round-trip and the
  /// chunk-pipelined recursive doubling wins again (bench/collectives).
  std::size_t coll_rd_max_bytes = 16 * 1024;
};

}  // namespace pm2::nm
