#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace pm2 {

std::string_view MetricsRegistry::name_of(const Record& r) const noexcept {
  return {chunks_[r.name >> kChunkBits].get() +
              (r.name & ((1u << kChunkBits) - 1)),
          r.len};
}

bool MetricsRegistry::before(std::uint32_t a, std::uint32_t b) const noexcept {
  const int c = name_of(record(a)).compare(name_of(record(b)));
  return c != 0 ? c < 0 : a < b;  // a name's first registration first
}

MetricsRegistry::Record& MetricsRegistry::append(std::string_view name,
                                                 Kind kind, const void* src) {
  PM2_ASSERT_MSG(!name.empty(), "metric name must not be empty");
  PM2_ASSERT_MSG(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                 "metric name too long");
  PM2_ASSERT(records_ < std::numeric_limits<std::uint32_t>::max());
  constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;
  if (chunks_.empty() || chunk_used_ + name.size() > kChunk) {
    PM2_ASSERT(chunks_.size() < (std::size_t{1} << (32 - kChunkBits)));
    chunks_.emplace_back(new char[std::max(kChunk, name.size())]);
    chunk_used_ = 0;
  }
  std::copy(name.begin(), name.end(), chunks_.back().get() + chunk_used_);
  if ((records_ & ((1u << kBlockBits) - 1)) == 0) {
    blocks_.emplace_back(new Record[std::size_t{1} << kBlockBits]);
  }
  Record& r = record(records_++);
  r.name = static_cast<std::uint32_t>(((chunks_.size() - 1) << kChunkBits) |
                                      chunk_used_);
  r.len = static_cast<std::uint16_t>(name.size());
  r.kind = kind;
  r.src = src;
  chunk_used_ += name.size();
  return r;
}

std::int64_t MetricsRegistry::find_any(std::string_view name) const {
  if (records_ - indexed_ > kMaxScan) index();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), name,
      [this](std::uint32_t i, std::string_view n) {
        return name_of(record(i)) < n;
      });
  if (it != order_.end() && name_of(record(*it)) == name) return *it;
  for (std::size_t i = indexed_; i < records_; ++i) {
    if (name_of(record(i)) == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

const MetricsRegistry::Record* MetricsRegistry::find(
    std::string_view name) const noexcept {
  index();
  const std::int64_t i = find_any(name);
  return i < 0 ? nullptr : &record(static_cast<std::size_t>(i));
}

void MetricsRegistry::index() const {
  const std::size_t n = records_;
  if (indexed_ == n) return;
  const auto mid = static_cast<std::ptrdiff_t>(order_.size());
  order_.reserve(order_.size() + (n - indexed_));
  for (std::size_t i = indexed_; i < n; ++i) {
    order_.push_back(static_cast<std::uint32_t>(i));
  }
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    return before(a, b);
  };
  std::sort(order_.begin() + mid, order_.end(), less);
  std::inplace_merge(order_.begin(), order_.begin() + mid, order_.end(),
                     less);
  // Fold duplicates into their name's first registration.
  std::size_t out = 0;
  for (const std::uint32_t i : order_) {
    if (out > 0 &&
        name_of(record(order_[out - 1])) == name_of(record(i))) {
      check_duplicate(record(order_[out - 1]), record(i));
      continue;
    }
    order_[out++] = i;
  }
  order_.resize(out);
  indexed_ = n;
}

void MetricsRegistry::check_duplicate(const Record& first,
                                      const Record& dup) {
  PM2_ASSERT_MSG(first.kind == dup.kind,
                 "metric re-registered with a different kind");
  PM2_ASSERT_MSG(first.kind != Kind::kBoundGauge,
                 "metric name already bound to a gauge");
  PM2_ASSERT_MSG(first.src == dup.src,
                 "metric name already bound to a different counter");
}

template <class Make>
void* MetricsRegistry::owned(std::string_view name, Kind kind, Make make) {
  const std::int64_t i = find_any(name);
  // Owned storage is the registry's own and mutable; only bound sources
  // are read-only.
  if (i >= 0) {
    const Record& r = record(static_cast<std::size_t>(i));
    PM2_ASSERT_MSG(r.kind == kind,
                   "metric re-registered with a different kind");
    return const_cast<void*>(r.src);
  }
  return const_cast<void*>(append(name, kind, make()).src);
}

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  return *static_cast<std::uint64_t*>(owned(
      name, Kind::kCounter, [this] { return &counters_.emplace_back(); }));
}

double& MetricsRegistry::gauge(std::string_view name) {
  return *static_cast<double*>(
      owned(name, Kind::kGauge, [this] { return &gauges_.emplace_back(); }));
}

Log2Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *static_cast<Log2Histogram*>(owned(
      name, Kind::kHistogram, [this] { return &histograms_.emplace_back(); }));
}

void MetricsRegistry::bind_counter(std::string_view name,
                                   const std::uint64_t* source) {
  PM2_ASSERT(source != nullptr);
  append(name, Kind::kBoundCounter, source);
}

void MetricsRegistry::bind_gauge(std::string_view name,
                                 std::function<double()> source) {
  PM2_ASSERT(source != nullptr);
  append(name, Kind::kBoundGauge,
         &bound_gauges_.emplace_back(std::move(source)));
}

bool MetricsRegistry::contains(std::string_view name) const noexcept {
  return find(name) != nullptr;
}

std::size_t MetricsRegistry::size() const noexcept {
  index();
  return order_.size();
}

double MetricsRegistry::numeric(const Record& r) noexcept {
  switch (r.kind) {
    case Kind::kCounter:
    case Kind::kBoundCounter:
      return static_cast<double>(*static_cast<const std::uint64_t*>(r.src));
    case Kind::kGauge: return *static_cast<const double*>(r.src);
    case Kind::kBoundGauge:
      return (*static_cast<const std::function<double()>*>(r.src))();
    case Kind::kHistogram: return 0;
  }
  return 0;
}

double MetricsRegistry::value(std::string_view name) const noexcept {
  const Record* r = find(name);
  return r == nullptr ? 0 : numeric(*r);
}

const Log2Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const noexcept {
  const Record* r = find(name);
  return r != nullptr && r->kind == Kind::kHistogram
             ? static_cast<const Log2Histogram*>(r->src)
             : nullptr;
}

void MetricsRegistry::visit(const std::function<void(const View&)>& fn) const {
  index();
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const Record& r = record(order_[k]);
    View v;
    v.name = name_of(r);
    v.kind = r.kind;
    v.number = numeric(r);
    if (r.kind == Kind::kHistogram) {
      v.hist = static_cast<const Log2Histogram*>(r.src);
    }
    fn(v);
  }
}

std::uint64_t MetricsRegistry::sum(std::string_view prefix,
                                   std::string_view suffix) const noexcept {
  index();
  std::uint64_t total = 0;
  // The index is name-ordered: jump to the prefix and stop past it.
  for (auto it = std::lower_bound(order_.begin(), order_.end(), prefix,
                                  [this](std::uint32_t i, std::string_view p) {
                                    return name_of(record(i)) < p;
                                  });
       it != order_.end(); ++it) {
    const std::string_view name = name_of(record(*it));
    if (!name.starts_with(prefix)) break;
    if (!name.ends_with(suffix)) continue;
    total += static_cast<std::uint64_t>(numeric(record(*it)));
  }
  return total;
}

std::string MetricsRegistry::to_json() const {
  std::string counters, gauges, hists;
  char buf[96];
  index();
  for (const std::uint32_t idx : order_) {
    const Record& m = record(idx);
    const std::string_view name = name_of(m);
    switch (m.kind) {
      case Kind::kCounter:
      case Kind::kBoundCounter: {
        if (!counters.empty()) counters += ",";
        const auto v = *static_cast<const std::uint64_t*>(m.src);
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(v));
        counters += "\"" + json_escape(name) + "\":" + buf;
        break;
      }
      case Kind::kGauge:
      case Kind::kBoundGauge: {
        if (!gauges.empty()) gauges += ",";
        const double v = numeric(m);
        std::snprintf(buf, sizeof buf, "%.6g", v);
        gauges += "\"" + json_escape(name) + "\":" + buf;
        break;
      }
      case Kind::kHistogram: {
        if (!hists.empty()) hists += ",";
        const auto& h = *static_cast<const Log2Histogram*>(m.src);
        hists += "\"" + json_escape(name) + "\":{";
        std::snprintf(buf, sizeof buf,
                      "\"total\":%llu,\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g",
                      static_cast<unsigned long long>(h.total()),
                      h.percentile(50), h.percentile(90),
                      h.percentile(99));
        hists += buf;
        hists += ",\"buckets\":[";
        bool first = true;
        for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
          if (h.bucket_count(i) == 0) continue;
          if (!first) hists += ",";
          first = false;
          std::snprintf(
              buf, sizeof buf, "[%llu,%llu,%llu]",
              static_cast<unsigned long long>(Log2Histogram::bucket_lo(i)),
              static_cast<unsigned long long>(Log2Histogram::bucket_hi(i)),
              static_cast<unsigned long long>(h.bucket_count(i)));
          hists += buf;
        }
        hists += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + hists + "}}";
}

}  // namespace pm2
