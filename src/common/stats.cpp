#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace pm2 {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double Samples::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

void Samples::ensure_sorted() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) {
  PM2_ASSERT(p >= 0.0 && p <= 100.0);
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

double Samples::min() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Samples::max() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

void Log2Histogram::add(std::uint64_t value, std::uint64_t count) noexcept {
  const std::size_t bucket =
      value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  buckets_[std::min(bucket, kBuckets - 1)] += count;
  total_ += count;
}

void Log2Histogram::merge(const Log2Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  total_ += other.total_;
}

double Log2Histogram::percentile(double p) const noexcept {
  if (total_ == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 100.0);
  // Nearest-rank target, then linear interpolation within the bucket.
  const double rank = p / 100.0 * static_cast<double>(total_);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (seen + in_bucket >= rank) {
      const double lo = static_cast<double>(bucket_lo(i));
      const double hi = static_cast<double>(bucket_hi(i));
      const double frac =
          in_bucket > 0 ? std::min(1.0, std::max(0.0, (rank - seen) / in_bucket))
                        : 0.0;
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return static_cast<double>(bucket_hi(kBuckets - 1));
}

std::string Log2Histogram::render() const {
  std::string out;
  char line[128];
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t lo = bucket_lo(i);
    const std::uint64_t hi = bucket_hi(i);
    std::snprintf(line, sizeof line, "[%12llu, %12llu]: %llu\n",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
  }
  return out;
}

}  // namespace pm2
