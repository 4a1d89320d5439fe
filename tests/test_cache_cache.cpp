#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace sttgpu::cache {
namespace {

CacheGeometry small_geom() { return {4 * 1024, 4, 256}; }  // 4 sets x 4 ways

TEST(Cache, LoadMissAllocatesAndForwards) {
  SetAssocCache c(small_geom());
  const auto out = c.access(0x1000, AccessKind::kLoad, 1);
  EXPECT_FALSE(out.hit);  // the caller fetches the line downstream
  EXPECT_TRUE(c.contains(0x1000));
  EXPECT_EQ(c.counters().load_misses, 1u);

  const auto again = c.access(0x1000, AccessKind::kLoad, 2);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(c.counters().load_hits, 1u);
}

TEST(Cache, WriteBackAbsorbsStores) {
  SetAssocCache c(small_geom());
  c.access(0x2000, AccessKind::kLoad, 1);
  const auto out = c.access(0x2000, AccessKind::kStore, 2);
  EXPECT_TRUE(out.hit);
  EXPECT_FALSE(out.writeback);
  // Dirty line must produce a writeback when invalidated.
  EXPECT_TRUE(c.invalidate_line(0x2000));
}

// The GPU L1 global-store policy of the paper's Fig. 1b: L1Complex
// write-evicts a hit and does not allocate a miss by calling
// invalidate_line, and forwards the store downstream itself.

TEST(Cache, WriteEvictDropsLineAndForwards) {
  SetAssocCache c(small_geom());
  const std::uint64_t stride = 4 * 256;
  for (int i = 0; i < 4; ++i) c.access(0x3000 + i * stride, AccessKind::kLoad, i);
  EXPECT_TRUE(c.contains(0x3000 + stride));
  // A clean line: no writeback, so only the store itself goes downstream.
  EXPECT_FALSE(c.invalidate_line(0x3000 + stride));
  EXPECT_FALSE(c.contains(0x3000 + stride));  // evicted on write
  // The freed way takes the set's next fill; no resident line is displaced.
  const auto out = c.access(0x3000 + 4 * stride, AccessKind::kLoad, 10);
  EXPECT_FALSE(out.writeback);
  EXPECT_EQ(c.counters().evictions, 0u);
  EXPECT_TRUE(c.contains(0x3000));
}

TEST(Cache, WriteNoAllocatePassesThrough) {
  SetAssocCache c(small_geom());
  c.access(0x4000, AccessKind::kLoad, 1);
  const Addr miss = 0x4000 + 4 * 256;  // same set, not resident
  EXPECT_FALSE(c.invalidate_line(miss));
  EXPECT_FALSE(c.contains(miss));
  EXPECT_TRUE(c.contains(0x4000));
  EXPECT_EQ(c.tags().valid_count(), 1u);
  EXPECT_EQ(c.counters().accesses(), 1u);  // the forwarded store is no L1 access
}

TEST(Cache, WriteAllocateFetchesOnWrite) {
  SetAssocCache c(small_geom());
  const auto out = c.access(0x5000, AccessKind::kStore, 1);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(c.counters().store_misses, 1u);
  EXPECT_TRUE(c.contains(0x5000));
  EXPECT_TRUE(c.invalidate_line(0x5000));  // allocated dirty
}

TEST(Cache, DirtyEvictionProducesWriteback) {
  SetAssocCache c(small_geom());
  // Fill one set (4 ways) with dirty lines; set stride = 4 sets * 256B.
  const std::uint64_t stride = 4 * 256;
  for (int i = 0; i < 4; ++i) {
    c.access(0x10000 + i * stride, AccessKind::kStore, i);
  }
  // A fifth line in the same set evicts the LRU dirty line.
  const auto out = c.access(0x10000 + 4 * stride, AccessKind::kLoad, 10);
  EXPECT_TRUE(out.writeback);
  EXPECT_EQ(out.writeback_addr, 0x10000u);
  EXPECT_EQ(c.counters().evictions, 1u);
  EXPECT_EQ(c.counters().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  SetAssocCache c(small_geom());
  const std::uint64_t stride = 4 * 256;
  for (int i = 0; i < 5; ++i) c.access(0x10000 + i * stride, AccessKind::kLoad, i);
  EXPECT_EQ(c.counters().evictions, 1u);
  EXPECT_EQ(c.counters().writebacks, 0u);
}

TEST(Cache, MissRateComputation) {
  SetAssocCache c(small_geom());
  c.access(0x100, AccessKind::kLoad, 1);  // miss
  c.access(0x100, AccessKind::kLoad, 2);  // hit
  c.access(0x100, AccessKind::kLoad, 3);  // hit
  c.access(0x100, AccessKind::kLoad, 4);  // hit
  EXPECT_DOUBLE_EQ(c.counters().miss_rate(), 0.25);
}

}  // namespace
}  // namespace sttgpu::cache
