#include "cache/write_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace sttgpu::cache {
namespace {

TEST(WriteStats, RejectsEmptyGeometry) {
  EXPECT_THROW(WriteVariationTracker(0, 4), SimError);
  EXPECT_THROW(WriteVariationTracker(4, 0), SimError);
}

TEST(WriteStats, UniformWritesHaveZeroVariation) {
  WriteVariationTracker t(8, 4);
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (unsigned w = 0; w < 4; ++w) t.record_write(s, w);
  }
  EXPECT_DOUBLE_EQ(t.inter_set_cov(), 0.0);
  EXPECT_DOUBLE_EQ(t.intra_set_cov(), 0.0);
  EXPECT_EQ(t.total_writes(), 32u);
}

TEST(WriteStats, HotSetDrivesInterSetCov) {
  WriteVariationTracker t(4, 2);
  for (int i = 0; i < 100; ++i) t.record_write(0, 0);
  // One hot set among four: inter-set COV = sqrt(3).
  EXPECT_NEAR(t.inter_set_cov(), std::sqrt(3.0), 1e-9);
  // Within the hot set, one hot way of two: per-set COV = 1 (only written
  // sets count).
  EXPECT_NEAR(t.intra_set_cov(), 1.0, 1e-9);
}

TEST(WriteStats, IntraSetIgnoresUntouchedSets) {
  WriteVariationTracker t(16, 4);
  // Only set 3 sees traffic, spread evenly over its ways.
  for (unsigned w = 0; w < 4; ++w) t.record_write(3, w);
  EXPECT_DOUBLE_EQ(t.intra_set_cov(), 0.0);
  EXPECT_GT(t.inter_set_cov(), 0.0);
}

TEST(WriteStats, AccessorsAndReset) {
  WriteVariationTracker t(2, 2);
  t.record_write(1, 0);
  t.record_write(1, 0);
  EXPECT_EQ(t.set_writes(1), 2u);
  EXPECT_EQ(t.way_writes(1, 0), 2u);
  EXPECT_EQ(t.way_writes(1, 1), 0u);
  EXPECT_EQ(t.total_writes(), 2u);
  EXPECT_EQ(t.set_writes(0), 0u);
}

TEST(WriteStats, SkewedTrafficBeatsUniformTraffic) {
  // Property: Zipf-skewed write placement produces higher COV than uniform.
  WriteVariationTracker uniform(64, 8), skewed(64, 8);
  Rng rng(5);
  ZipfSampler zipf(64, 1.2);
  for (int i = 0; i < 20000; ++i) {
    uniform.record_write(rng.next_below(64), static_cast<unsigned>(rng.next_below(8)));
    skewed.record_write(zipf.sample(rng), static_cast<unsigned>(rng.next_below(8)));
  }
  EXPECT_GT(skewed.inter_set_cov(), 3.0 * uniform.inter_set_cov());
}

}  // namespace
}  // namespace sttgpu::cache
