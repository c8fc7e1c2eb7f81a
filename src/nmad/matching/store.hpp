// Sharded tag-matching store for nm::Core.
//
// The paper's engine funnels every isend/irecv/probe through one matching
// path guarded by the library-wide engine lock (§2.1) — the central
// bottleneck for multithreaded message rate.  This store splits the match
// state (per-flow sequence cursors, posted receives, unexpected messages,
// unexpected RTS handshakes, pending RPC dispatch entries) into
// per-peer×tag-band shards:
//
//  - shard_of(peer, tag) folds (peer, tag >> tag_band_shift) so traffic on
//    different peers or distant tags lands on different shards and can be
//    injected/matched concurrently;
//  - each shard carries its own modeled fine-grained lock (the same
//    EngineLock spin-cost model as the big lock, profiled as
//    "node<i>/locks/shard<s>") — or no lock at all in the legacy
//    single-path mode, where the engine lock still covers everything;
//  - sequence cursors are per (peer, tag) *within* a shard, so the wire
//    format and the (src, tag, seq) matching order per peer are unchanged;
//    cursors are 64-bit with a hard assert at the 32-bit wire-Seq boundary
//    (silent wrap would alias live messages, mirroring the PR-4 tag-band
//    exhaustion guard);
//  - per-shard counters ("node<i>/nm/shard<s>/*") obey conservation laws
//    the metrics checker enforces (tools/check_metrics.py --expect-shards):
//      recvs_posted      == recvs_matched + posted_pending
//      arrivals          == arrivals_matched + arrivals_buffered
//      arrivals_buffered == buffered_claimed + unexpected_pending
//      recvs_matched     == arrivals_matched + buffered_claimed
//    and, summed over shards, recvs_posted equals the node's nm/recvs.
//
// Locking discipline: the store never takes a lock itself except in
// pop_rpc_pending(); Core acquires the shard guard (EngineLockGuard on
// Shard::lock, a no-op in legacy mode), performs its suspension points
// (copy charges) *before* the final match decision, and never holds two
// shard locks at once — see docs/matching.md for the full hierarchy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/simtime.hpp"
#include "nmad/engine_lock.hpp"
#include "nmad/wire.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::nm {
struct Request;
}

namespace pm2::nm::matching {

using MatchKey = std::tuple<unsigned, Tag, Seq>;  // (src, tag, seq)

/// An eager message that arrived before its irecv: parked copy.
struct UnexpectedEager {
  std::vector<std::byte> payload;
  SimTime arrived_at = 0;  // wire-rx stamp for the eventual irecv
};

/// A rendezvous RTS that arrived before its irecv.
struct UnexpectedRts {
  std::uint64_t rdv = 0;
  std::uint32_t size = 0;
  SimTime arrived_at = 0;
};

/// Monotonic per-shard counters (gauges are derived from table sizes).
struct ShardStats {
  std::uint64_t recvs_posted = 0;   // irecvs routed to this shard
  std::uint64_t recvs_matched = 0;  // ... that found (or were found by) data
  std::uint64_t arrivals = 0;           // eager/RTS arrivals routed here
  std::uint64_t arrivals_matched = 0;   // matched a posted recv on arrival
  std::uint64_t arrivals_buffered = 0;  // parked in the unexpected store
  std::uint64_t buffered_claimed = 0;   // unexpected later claimed by irecv
};

struct Shard {
  /// Per-(peer, tag) sequence cursors.  64-bit so the exhaustion check is
  /// exact: the wire Seq is 32-bit and silent wrap would alias a live
  /// message still in the posted/unexpected tables.  Entries are never
  /// erased, so Core keeps collective-band tags (one matched pair each)
  /// out of this table altogether: see Core::coll_seq_free.
  struct Flow {
    std::uint64_t send_next = 0;
    std::uint64_t recv_next = 0;
  };

  /// Modeled fine-grained lock; null in legacy single-path mode (the
  /// engine lock then covers the whole core, exactly as before).
  std::unique_ptr<EngineLock> lock;

  std::map<std::pair<unsigned, Tag>, Flow> flows;
  std::map<MatchKey, Request*> posted;
  std::map<MatchKey, UnexpectedEager> unexpected;
  std::map<MatchKey, UnexpectedRts> unexpected_rts;
  /// (src, tag) of RPC-band messages buffered unexpected: one entry per
  /// buffered message not yet popped by the RPC dispatcher.  Pushed on
  /// arrival; *purged when an irecv claims a message* (so a popped entry
  /// is never stale); purge tolerates an entry the dispatcher already
  /// popped for the message it is receiving.
  std::deque<std::pair<unsigned, Tag>> rpc_pending;
  ShardStats stats;

  [[nodiscard]] Seq next_send_seq(unsigned peer, Tag tag) {
    return take_seq(flows[{peer, tag}].send_next, peer, tag);
  }
  [[nodiscard]] Seq next_recv_seq(unsigned peer, Tag tag) {
    return take_seq(flows[{peer, tag}].recv_next, peer, tag);
  }
  /// The sequence number the *next* irecv(peer, tag) would get — what the
  /// non-consuming probes match against.
  [[nodiscard]] Seq peek_recv_seq(unsigned peer, Tag tag) const {
    const auto it = flows.find({peer, tag});
    return it == flows.end() ? 0 : static_cast<Seq>(it->second.recv_next);
  }
  /// Test hook: place both cursors of (peer, tag) at `next` so wrap
  /// boundaries are reachable without 2^32 real messages.
  void seed_seq(unsigned peer, Tag tag, std::uint64_t next) {
    Flow& f = flows[{peer, tag}];
    f.send_next = next;
    f.recv_next = next;
  }

  /// Remove one pending-dispatch entry for (src, tag); called when an
  /// irecv claims a buffered RPC-band message.
  void purge_rpc_pending(unsigned src, Tag tag);

 private:
  static Seq take_seq(std::uint64_t& cursor, unsigned peer, Tag tag) {
    PM2_ASSERT_MSG(cursor < (std::uint64_t{1} << 32),
                   "sequence space exhausted for (peer, tag) flow — the "
                   "32-bit wire Seq would wrap and alias live messages");
    (void)peer;
    (void)tag;
    return static_cast<Seq>(cursor++);
  }
};

class Store {
 public:
  /// `shards` >= 1.  `model_locks` creates one EngineLock per shard
  /// (spin = `lock_spin`), registered with the lock profiler as
  /// "node<node>/locks/shard<s>"; off = legacy mode, Shard::lock stays
  /// null and EngineLockGuard over it is a no-op.
  Store(unsigned node, unsigned shards, unsigned tag_band_shift,
        SimDuration lock_spin, bool model_locks);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Tags within the same 2^tag_band_shift block share a band; (peer,
  /// band) folds onto a shard.  Deterministic, so tests and benches can
  /// place flows on distinct shards by spacing tags one band apart.
  [[nodiscard]] unsigned shard_of(unsigned peer, Tag tag) const noexcept {
    const std::uint64_t band = tag >> band_shift_;
    const std::uint64_t h =
        (static_cast<std::uint64_t>(peer) * 0x9E3779B97F4A7C15ull) ^
        (band * 0xC2B2AE3D27D4EB4Full);
    return static_cast<unsigned>(h % shards_.size());
  }

  [[nodiscard]] Shard& shard(unsigned s) noexcept { return *shards_[s]; }
  [[nodiscard]] const Shard& shard(unsigned s) const noexcept {
    return *shards_[s];
  }
  [[nodiscard]] Shard& shard_for(unsigned peer, Tag tag) noexcept {
    return *shards_[shard_of(peer, tag)];
  }
  [[nodiscard]] const Shard& shard_for(unsigned peer, Tag tag) const noexcept {
    return *shards_[shard_of(peer, tag)];
  }

  /// Pop one (src, tag) with a buffered unexpected RPC-band message.
  /// Scans shards round-robin from a fairness cursor, taking each shard's
  /// guard (free when uncontended).  Entries are purged at match time, so
  /// a popped entry always refers to a message still in the store.
  [[nodiscard]] std::optional<std::pair<unsigned, Tag>> pop_rpc_pending();

  /// True when pop_rpc_pending() would find every shard empty without
  /// spinning on a shard lock.
  [[nodiscard]] bool rpc_pending_idle() const noexcept;
  /// Engine context, rpc_pending_idle(): report that empty pop's lock
  /// traffic (each shard's guard, in its visiting order).
  void note_empty_rpc_pop() const noexcept;

  /// Bind per-shard counters, the pending gauges and the live sequence
  /// cursor count ("flows") under "<prefix>/shard<s>/..." (prefix is the
  /// node's "nodeN/nm").
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) const;

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned band_shift_;
  unsigned rpc_cursor_ = 0;  // pop_rpc_pending round-robin fairness
};

}  // namespace pm2::nm::matching
