#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace pm2 {
namespace {

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);  // sample variance of {1,2,3}
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SumStats, MeanMatchesSamplesBitForBit) {
  SumStats acc;
  Samples all;
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  double x = 0.1;
  for (int i = 0; i < 1000; ++i) {
    x = x * 1.37 + 0.013;
    if (x > 50.0) x -= 49.7;
    acc.add(-x);
    all.add(-x);
  }
  EXPECT_EQ(acc.count(), all.count());
  EXPECT_EQ(acc.mean(), all.mean());  // exact, not within a tolerance
  EXPECT_EQ(acc.max(), all.max());    // all negative: max is not the 0 seed
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, AddAfterPercentileResorts) {
  Samples s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Log2Histogram, BucketsAndRender) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1000);
  EXPECT_EQ(h.total(), 5u);
  const std::string text = h.render();
  EXPECT_NE(text.find(": 2"), std::string::npos);  // values 2 and 3 share a bucket
}

TEST(Log2Histogram, MergeAddsPerBucket) {
  Log2Histogram a, b, both;
  for (std::uint64_t v : {1ull, 5ull, 100ull}) {
    a.add(v);
    both.add(v);
  }
  for (std::uint64_t v : {5ull, 5000ull}) {
    b.add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), both.total());
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << "bucket " << i;
  }
}

TEST(Log2Histogram, MergeOfEmptyIsIdentity) {
  Log2Histogram a, empty;
  for (std::uint64_t v : {1ull, 5ull, 100ull}) a.add(v);
  const double p50_before = a.percentile(50);
  a.merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(a.total(), 3u);
  EXPECT_DOUBLE_EQ(a.percentile(50), p50_before);

  Log2Histogram b;
  b.merge(a);  // merging into an empty histogram copies it
  EXPECT_EQ(b.total(), a.total());
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(b.bucket_count(i), a.bucket_count(i)) << "bucket " << i;
  }

  Log2Histogram c, d;
  c.merge(d);  // empty + empty stays empty, percentile stays 0
  EXPECT_EQ(c.total(), 0u);
  EXPECT_DOUBLE_EQ(c.percentile(99), 0.0);
}

TEST(Log2Histogram, PercentileBounds) {
  Log2Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.add(1000);  // all in one bucket
  // Every sample lies in [512, 1023]; the estimate must too.
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_LE(h.percentile(1), h.percentile(99));
}

TEST(Log2Histogram, PercentileOrderingAcrossBuckets) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(100);     // bucket [64, 127]
  for (int i = 0; i < 10; ++i) h.add(100000);  // far-out tail
  const double p50 = h.percentile(50);
  const double p99 = h.percentile(99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  EXPECT_GT(p99, 1000.0);  // the tail dominates the 99th
  EXPECT_LE(p99, 131071.0);
}

}  // namespace
}  // namespace pm2
