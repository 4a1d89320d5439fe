#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace sttgpu {
namespace {

TEST(StreamStats, Empty) {
  StreamStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(StreamStats, KnownValues) {
  StreamStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // population stddev
  EXPECT_NEAR(s.cov(), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamStats, ConstantSeriesHasZeroCov) {
  StreamStats s;
  for (int i = 0; i < 100; ++i) s.add(3.0);
  EXPECT_NEAR(s.cov(), 0.0, 1e-12);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(Histogram(std::vector<double>{}), SimError);
  EXPECT_THROW(Histogram({1.0, 1.0}), SimError);
  EXPECT_THROW(Histogram({2.0, 1.0}), SimError);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({10.0, 100.0});
  h.add(5.0);
  h.add(10.0);   // on the edge => first bucket (<= edge)
  h.add(50.0);
  h.add(1000.0);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(1), 0.75);
}

TEST(Histogram, WeightedAddAndReset) {
  Histogram h({1.0});
  h.add(0.5, 10);
  EXPECT_EQ(h.total(), 10u);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
}

TEST(Cov, UniformCountsZero) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({5, 5, 5, 5}), 0.0);
}

TEST(Cov, SingleHotSpotHigh) {
  // One hot element among zeros: COV = sqrt(n-1).
  const double cov = coefficient_of_variation({100, 0, 0, 0});
  EXPECT_NEAR(cov, std::sqrt(3.0), 1e-9);
}

TEST(Cov, EmptyAndAllZero) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({}), 0.0);
  EXPECT_DOUBLE_EQ(coefficient_of_variation({0, 0, 0}), 0.0);
}

TEST(GeometricMean, Basics) {
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({4.0}), 4.0);
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 0.0}), 0.0);  // non-positive => 0
}

TEST(CounterSet, GetAndMerge) {
  CounterSet a, b;
  a.at(a.intern("x")) = 3;
  b.at(b.intern("x")) = 4;
  b.at(b.intern("y")) = 1;
  a.merge(b);
  EXPECT_EQ(a.get("x"), 7u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.get("missing"), 0u);
}

TEST(CounterSet, InternedHandlesAliasStringKeys) {
  CounterSet c;
  const CounterId id = c.intern("hits");
  EXPECT_EQ(c.intern("hits"), id);  // idempotent
  c.at(id) += 5;
  c.at(c.intern("hits")) += 2;  // re-interning yields the same slot
  EXPECT_EQ(c.get("hits"), 7u);
  EXPECT_EQ(c.at(id), 7u);
  // Interning alone creates the counter at zero (visible in all()).
  const CounterId other = c.intern("misses");
  EXPECT_EQ(c.at(other), 0u);
  const auto all = c.all();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("misses"), 0u);
}

TEST(Histogram, CumulativeFractionTracksLaterAdds) {
  // The prefix sums are cached; adding afterwards must invalidate the cache.
  Histogram h({10, 20});
  h.add(5);
  h.add(5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(0), 1.0);
  h.add(15);
  h.add(25);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(1), 0.75);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(2), 1.0);
  h.reset();
  h.add(25);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(2), 1.0);
}

}  // namespace
}  // namespace sttgpu
