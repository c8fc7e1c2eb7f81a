#include "nmad/matching/store.hpp"

#include <algorithm>
#include <string>

#include "common/metrics.hpp"
#include "marcel/lock_profile.hpp"

namespace pm2::nm::matching {

void Shard::purge_rpc_pending(unsigned src, Tag tag) {
  // Erase one entry if present.  Absence is legitimate: the RPC
  // dispatcher pops the entry *before* posting its receive, so the irecv
  // that claims the message finds its entry already consumed.  Entries of
  // one (src, tag) are interchangeable — what matters is that the deque
  // holds exactly one entry per buffered message not yet handed to the
  // dispatcher, so pop_rpc_pending can never return a stale channel.
  const auto it = std::find(rpc_pending.begin(), rpc_pending.end(),
                            std::make_pair(src, tag));
  if (it != rpc_pending.end()) rpc_pending.erase(it);
}

Store::Store(unsigned node, unsigned shards, unsigned tag_band_shift,
             SimDuration lock_spin, bool model_locks)
    : band_shift_(tag_band_shift) {
  PM2_ASSERT(shards >= 1);
  PM2_ASSERT_MSG(tag_band_shift < 32, "tag band wider than the tag space");
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    if (model_locks) {
      Shard& sh = *shards_.back();
      sh.lock = std::make_unique<EngineLock>(lock_spin);
      lock_profile::register_site(sh.lock.get(),
                                  "node" + std::to_string(node) +
                                      "/locks/shard" + std::to_string(s));
    }
  }
}

Store::~Store() {
  for (const auto& sh : shards_) {
    if (sh->lock != nullptr) lock_profile::unregister_site(sh->lock.get());
  }
}

std::optional<std::pair<unsigned, Tag>> Store::pop_rpc_pending() {
  const unsigned n = shard_count();
  for (unsigned i = 0; i < n; ++i) {
    const unsigned s = (rpc_cursor_ + i) % n;
    Shard& sh = *shards_[s];
    EngineLockGuard sg(sh.lock.get());
    if (sh.rpc_pending.empty()) continue;
    const auto key = sh.rpc_pending.front();
    sh.rpc_pending.pop_front();
    rpc_cursor_ = (s + 1) % n;
    return key;
  }
  return std::nullopt;
}

bool Store::rpc_pending_idle() const noexcept {
  for (const auto& sh : shards_) {
    if (!sh->rpc_pending.empty()) return false;
    if (sh->lock != nullptr && !sh->lock->free()) return false;
  }
  return true;
}

void Store::note_empty_rpc_pop() const noexcept {
  const unsigned n = shard_count();
  for (unsigned i = 0; i < n; ++i) {
    if (const EngineLock* lock = shards_[(rpc_cursor_ + i) % n]->lock.get()) {
      lock->note_engine_acquire();
      lock->note_engine_release();
    }
  }
}

void Store::bind_metrics(MetricsRegistry& registry,
                         std::string_view prefix) const {
  for (unsigned s = 0; s < shard_count(); ++s) {
    const Shard* sh = shards_[s].get();
    const std::string p =
        std::string(prefix) + "/shard" + std::to_string(s);
    registry.bind_counter(p + "/recvs_posted", &sh->stats.recvs_posted);
    registry.bind_counter(p + "/recvs_matched", &sh->stats.recvs_matched);
    registry.bind_counter(p + "/arrivals", &sh->stats.arrivals);
    registry.bind_counter(p + "/arrivals_matched",
                          &sh->stats.arrivals_matched);
    registry.bind_counter(p + "/arrivals_buffered",
                          &sh->stats.arrivals_buffered);
    registry.bind_counter(p + "/buffered_claimed",
                          &sh->stats.buffered_claimed);
    registry.bind_gauge(p + "/posted_pending", [sh] {
      return static_cast<double>(sh->posted.size());
    });
    registry.bind_gauge(p + "/unexpected_pending", [sh] {
      return static_cast<double>(sh->unexpected.size() +
                                 sh->unexpected_rts.size());
    });
    registry.bind_gauge(p + "/flows", [sh] {
      return static_cast<double>(sh->flows.size());
    });
  }
}

}  // namespace pm2::nm::matching
