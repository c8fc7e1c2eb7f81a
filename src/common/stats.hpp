// Online statistics and fixed-bucket latency histograms for the benchmark
// harnesses and EXPERIMENTS.md tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pm2 {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats(); }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Count, sum and max in constant memory.  mean() divides the same
/// in-order sum Samples::mean() computes, so the two agree bit for bit.
class SumStats {
 public:
  void add(double x) noexcept {
    if (n_ == 0 || x > max_) max_ = x;
    sum_ += x;
    ++n_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Exact-percentile sample recorder (stores all samples; fine for the
/// bench-sized datasets we produce).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double median() { return percentile(50.0); }
  /// p in [0,100]; nearest-rank on the sorted samples.
  [[nodiscard]] double percentile(double p);
  [[nodiscard]] double min();
  [[nodiscard]] double max();
  void clear() { values_.clear(); sorted_ = false; }

 private:
  void ensure_sorted();
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Log2-bucketed histogram for value distributions spanning decades
/// (latencies in ns).
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(std::uint64_t value) noexcept;

  /// Sum another histogram into this one (per-CPU → per-node aggregation
  /// in the end-of-run report, without re-recording samples).
  void merge(const Log2Histogram& other) noexcept;

  /// Approximate p-th percentile (p in [0,100]): finds the bucket where
  /// the cumulative count crosses the rank and interpolates linearly
  /// inside it.  Error is bounded by the bucket width (one octave).
  /// Returns 0 on an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }
  /// Inclusive value range [lo, hi] covered by bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : 1ull << (i - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t i) noexcept {
    return i == 0 ? 0 : i >= kBuckets ? ~0ull : (1ull << i) - 1;
  }
  /// Render as "bucket-range: count" lines.
  [[nodiscard]] std::string render() const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace pm2
