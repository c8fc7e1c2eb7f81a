// Lock-contention profiler.  The instrumented locks (nm::EngineLock,
// the shard locks, marcel::Mutex) report to it directly, next to their
// lockdep calls.
//
// Per lock site — an instance registered under an explicit name (e.g.
// "node0/locks/engine"), or, for anonymous instances, the lock class
// aggregated under "locks/<class>" — it records acquisitions, contended
// acquisitions, and wait/hold durations into Log2Histograms (microsecond
// values).  Wait samples are recorded for contended acquisitions only, so
// the wait histogram's total equals the contended count.
//
// Durations are simulation time: every lock event must come from a
// virtual core (a fiber on it, or engine context acting for one).
//
// Enabling is reference-counted; pm2::Cluster enables the profiler for its
// lifetime, so it is on in every test.  Disabled cost at the locks: one
// relaxed atomic load per event.  The first enable() after the count
// drops to zero resets all statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace pm2 {
class MetricsRegistry;
}

namespace pm2::lock_profile {

/// Enable/disable (reference-counted).  enable() resets statistics when
/// the count goes 0 -> 1; events are ignored while the count is 0.
void enable();
void disable();
[[nodiscard]] bool enabled() noexcept;

/// Clear all recorded statistics and anonymous sites; named registrations
/// of live locks survive with zeroed stats.
void reset();

/// Give `lock` an explicit site name; its events stop aggregating under
/// the class name.  Call unregister_site before the lock dies.
void register_site(const void* lock, std::string name);
void unregister_site(const void* lock);

/// Instrumentation entry points, called by the locks themselves:
///   * note_contended — the fast path failed; the caller will spin or
///     block.  At most once per acquisition.
///   * note_acquired — the lock is now held; `contended` repeats whether
///     note_contended preceded it.
///   * note_released — the lock was released.
void note_contended(const void* lock, const char* lock_class);
void note_acquired(const void* lock, const char* lock_class, bool contended);
void note_released(const void* lock);

struct SiteSnapshot {
  std::string name;
  std::uint64_t acq = 0;
  std::uint64_t contended = 0;
  Log2Histogram wait_us;  // contended acquisitions only
  Log2Histogram hold_us;  // every release
};

/// Per-site statistics, merged by site name, sorted by name.
[[nodiscard]] std::vector<SiteSnapshot> snapshot();

/// Write every site into `registry` as
///   <name>/acq, <name>/contended   (counters)
///   <name>/wait_us, <name>/hold_us (histograms)
/// Idempotent: values are assigned, not accumulated, so exporting twice
/// (report + metrics.json) is safe.
void export_to(MetricsRegistry& registry);

}  // namespace pm2::lock_profile
