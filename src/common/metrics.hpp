// Unified, hierarchical metrics registry — the single export surface for
// every counter the stack maintains.
//
// Subsystems keep their hot counters where they always lived (plain
// std::uint64_t fields in a Stats struct, incremented with zero overhead)
// and *bind* them into the registry under a slash-separated name such as
// "node0/piom/offload/posted".  The registry reads through the bound
// pointer at export time, so registration costs nothing on the hot path.
// Registry-owned metrics (counters the registry allocates itself, gauges
// computed through a callback, Log2Histograms) cover everything that has
// no natural home in a subsystem struct.
//
// Everything the registry holds exports uniformly:
//   * to_json()                   — the "metrics" section of metrics.json,
//   * sim::export_registry(...)   — Chrome-trace counter tracks,
//   * visit()                     — pm2::format_report's data source.
//
// Names must be unique across kinds; duplicate registration of the same
// name and kind returns the existing metric (so independent call sites can
// share a counter), while a kind clash aborts — it is always a bug.
//
// Storage is sized for clusters that bind tens of thousands of counters:
// each metric is one 16-byte record (kind plus pointer) and its name lives
// in a registry-owned character arena, so registering allocates nothing
// per metric.  Registry-owned values sit in stable side storage (their
// references survive later registrations); only bound gauges keep a
// std::function.  Binding appends without a lookup.  The name-ordered
// index is built, and bound duplicates are folded or rejected, the first
// time a lookup, size(), sum(), visit() or to_json() needs it — so a const
// lookup may allocate, and a registry is not safe to read from two host
// threads at once.  A binder that wants clashes caught at once calls
// size() when it is done (pm2::Cluster does).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace pm2 {

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t {
    kCounter,       // registry-owned monotonic uint64
    kBoundCounter,  // reads through a subsystem-owned uint64
    kGauge,         // registry-owned double
    kBoundGauge,    // computed through a callback at export time
    kHistogram,     // registry-owned Log2Histogram
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- registration ----

  /// Registry-owned counter; same name → same storage.
  std::uint64_t& counter(std::string_view name);

  /// Registry-owned gauge; same name → same storage.
  double& gauge(std::string_view name);

  /// Registry-owned histogram; same name → same storage.
  Log2Histogram& histogram(std::string_view name);

  /// Bind a subsystem-owned counter.  `source` must stay valid for the
  /// registry's lifetime (subsystem structs owned by the Cluster are).
  void bind_counter(std::string_view name, const std::uint64_t* source);

  /// Bind a computed gauge (e.g. "1 when the PIOMan method is blocking").
  void bind_gauge(std::string_view name, std::function<double()> source);

  // ---- lookup / export ----

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Number of distinct metric names.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Current numeric value of a counter/gauge by name; 0 when absent or a
  /// histogram.  The lenient default keeps report formatting total.
  [[nodiscard]] double value(std::string_view name) const noexcept;

  /// Histogram by name, or nullptr.
  [[nodiscard]] const Log2Histogram* find_histogram(
      std::string_view name) const noexcept;

  /// Read-only view of one metric during visit().
  struct View {
    std::string_view name;
    Kind kind;
    double number = 0;                     // counters and gauges
    const Log2Histogram* hist = nullptr;   // histograms only
  };

  /// Visit every metric in name order.
  void visit(const std::function<void(const View&)>& fn) const;

  /// Sum of all counter values whose name starts with `prefix` and ends
  /// with `suffix` (e.g. prefix "node0/cpu", suffix "/steals" aggregates
  /// per-CPU counters into a node total).
  [[nodiscard]] std::uint64_t sum(std::string_view prefix,
                                  std::string_view suffix) const noexcept;

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  // One metric: its name in the arena and what it reads.
  struct Record {
    std::uint32_t name = 0;  // chunk << kChunkBits | position in the chunk
    std::uint16_t len = 0;
    Kind kind = Kind::kCounter;
    // kCounter: std::uint64_t, kBoundCounter: const std::uint64_t,
    // kGauge: double, kBoundGauge: std::function<double()>,
    // kHistogram: Log2Histogram.
    const void* src = nullptr;
  };
  static_assert(sizeof(Record) == 16);

  // Names are packed into 4 KiB chunks (a longer name gets a chunk of its
  // own); records into blocks of 256.  Neither ever moves, and the unused
  // tail is at most one chunk and one block.
  static constexpr unsigned kChunkBits = 12;
  static constexpr unsigned kBlockBits = 8;
  // Registry-owned registrations scan at most this many unindexed records
  // before the index is brought up to date.
  static constexpr std::size_t kMaxScan = 64;

  [[nodiscard]] Record& record(std::size_t i) const noexcept {
    return blocks_[i >> kBlockBits][i & ((1u << kBlockBits) - 1)];
  }
  [[nodiscard]] std::string_view name_of(const Record& r) const noexcept;
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const noexcept;
  Record& append(std::string_view name, Kind kind, const void* src);
  /// Registry-owned metric `name` of `kind`, made by `make` when new.
  template <class Make>
  void* owned(std::string_view name, Kind kind, Make make);
  /// Index of the first record named `name`, or -1 (indexed or not).
  [[nodiscard]] std::int64_t find_any(std::string_view name) const;
  /// Record of `name` through the up-to-date index, or nullptr.
  [[nodiscard]] const Record* find(std::string_view name) const noexcept;
  /// Merge every unindexed record into the index, folding duplicates.
  void index() const;
  static void check_duplicate(const Record& first, const Record& dup);
  [[nodiscard]] static double numeric(const Record& r) noexcept;

  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::size_t records_ = 0;
  std::vector<std::unique_ptr<char[]>> chunks_;  // the name arena
  std::size_t chunk_used_ = 0;                   // bytes used in the last
  std::deque<std::uint64_t> counters_;
  std::deque<double> gauges_;
  std::deque<Log2Histogram> histograms_;
  std::deque<std::function<double()>> bound_gauges_;
  // Record indexes sorted by name, one per distinct name, covering the
  // first `indexed_` records.
  mutable std::vector<std::uint32_t> order_;
  mutable std::size_t indexed_ = 0;
};

}  // namespace pm2
