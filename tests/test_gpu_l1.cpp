#include "gpu/l1_complex.hpp"

#include <gtest/gtest.h>

namespace sttgpu::gpu {
namespace {

using workload::MemSpace;
using Kind = workload::WarpInstr::Kind;

class L1Test : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  L1Complex l1_{cfg_};
  SmallVec<Addr, 2> wb_;
};

TEST_F(L1Test, LoadMissRequestsFill) {
  const L1Outcome out = l1_.access(0x1000, Kind::kLoad, MemSpace::kGlobal, 1);
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.send_read);
  EXPECT_FALSE(out.send_write);
}

TEST_F(L1Test, FillThenLoadHits) {
  l1_.fill(0x1000, MemSpace::kGlobal, 1, wb_);
  const L1Outcome out = l1_.access(0x1000, Kind::kLoad, MemSpace::kGlobal, 2);
  EXPECT_TRUE(out.hit);
  EXPECT_FALSE(out.send_read);
}

TEST_F(L1Test, GlobalStoreHitWriteEvicts) {
  // Paper Fig. 1b: global store hit => invalidate and forward to L2.
  l1_.fill(0x2000, MemSpace::kGlobal, 1, wb_);
  const L1Outcome out = l1_.access(0x2000, Kind::kStore, MemSpace::kGlobal, 2);
  EXPECT_TRUE(out.send_write);
  EXPECT_TRUE(out.writebacks.empty());
  // The line is gone: next load misses.
  EXPECT_TRUE(l1_.access(0x2000, Kind::kLoad, MemSpace::kGlobal, 3).send_read);
}

TEST_F(L1Test, GlobalStoreMissWriteNoAllocate) {
  const L1Outcome out = l1_.access(0x3000, Kind::kStore, MemSpace::kGlobal, 1);
  EXPECT_TRUE(out.send_write);
  // Not allocated.
  EXPECT_TRUE(l1_.access(0x3000, Kind::kLoad, MemSpace::kGlobal, 2).send_read);
}

TEST_F(L1Test, LocalStoreWriteBackAllocates) {
  const L1Outcome out = l1_.access(0x4000, Kind::kStore, MemSpace::kLocal, 1);
  EXPECT_FALSE(out.send_write);  // absorbed locally
  // Resident and dirty: a subsequent load hits.
  EXPECT_TRUE(l1_.access(0x4000, Kind::kLoad, MemSpace::kLocal, 2).hit);
}

TEST_F(L1Test, DirtyLocalEvictionProducesWriteback) {
  // Fill one L1D set with dirty local lines, then overflow it.
  // 16KB 4-way 128B lines => 32 sets; set stride = 32 * 128.
  const std::uint64_t stride = 32 * 128;
  for (int i = 0; i < 4; ++i) {
    l1_.access(0x10000 + i * stride, Kind::kStore, MemSpace::kLocal, i);
  }
  const L1Outcome out = l1_.access(0x10000 + 4 * stride, Kind::kStore, MemSpace::kLocal, 9);
  ASSERT_EQ(out.writebacks.size(), 1u);
  EXPECT_EQ(out.writebacks[0], 0x10000u);
}

TEST_F(L1Test, ConstAndTextureUseSeparateCaches) {
  l1_.fill(0x5000, MemSpace::kConstant, 1, wb_);
  // Same address in the data space still misses (separate array).
  EXPECT_TRUE(l1_.access(0x5000, Kind::kLoad, MemSpace::kGlobal, 2).send_read);
  EXPECT_TRUE(l1_.access(0x5000, Kind::kLoad, MemSpace::kConstant, 2).hit);
  l1_.fill(0x6000, MemSpace::kTexture, 3, wb_);
  EXPECT_TRUE(l1_.access(0x6000, Kind::kLoad, MemSpace::kTexture, 4).hit);
}

TEST_F(L1Test, FlushReturnsDirtyLinesAndInvalidatesAll) {
  l1_.access(0x4000, Kind::kStore, MemSpace::kLocal, 1);   // dirty local
  l1_.fill(0x1000, MemSpace::kGlobal, 1, wb_);             // clean global
  const std::vector<Addr> dirty = l1_.flush();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0x4000u);
  // Everything is gone.
  EXPECT_TRUE(l1_.access(0x1000, Kind::kLoad, MemSpace::kGlobal, 5).send_read);
  EXPECT_FALSE(l1_.access(0x4000, Kind::kLoad, MemSpace::kLocal, 5).hit);
}

TEST_F(L1Test, CountersTrackHitsAndMisses) {
  l1_.fill(0x1000, MemSpace::kGlobal, 1, wb_);  // counted as the demand miss
  l1_.access(0x1000, Kind::kLoad, MemSpace::kGlobal, 2);
  l1_.access(0x1000, Kind::kLoad, MemSpace::kGlobal, 3);
  EXPECT_EQ(l1_.data_counters().load_hits, 2u);
  EXPECT_EQ(l1_.data_counters().load_misses, 1u);
}

}  // namespace
}  // namespace sttgpu::gpu
