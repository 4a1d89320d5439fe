// Direct unit tests of the SM core: issue/credit behaviour, MSHR merging,
// block refill and L1 flush — driven without the rest of the GPU via a
// capturing send function.
#include <gtest/gtest.h>

#include <map>

#include "gpu/sm.hpp"

namespace sttgpu::gpu {
namespace {

struct SentTxn {
  std::uint64_t id;
  Addr addr;
  bool is_store;
};

class SmTest : public ::testing::Test {
 protected:
  SmTest() : sm_(0, cfg_) {
    send_ = [this](Addr addr, bool is_store) -> std::uint64_t {
      const std::uint64_t id = next_id_++;
      sent_.push_back({id, addr, is_store});
      return id;
    };
  }

  workload::KernelSpec loads_kernel(unsigned instr = 60) {
    workload::KernelSpec k;
    k.name = "k";
    k.grid_blocks = 4;
    k.threads_per_block = 32;  // one warp per block
    k.regs_per_thread = 8;
    k.instructions_per_warp = instr;
    k.mem_fraction = 1.0;      // every instruction is a memory op
    k.store_fraction = 0.0;    // all loads
    k.pattern.kind = workload::PatternKind::kStreaming;
    k.pattern.footprint_bytes = 1 << 20;
    k.pattern.reuse_fraction = 0.0;
    k.pattern.wws_lines = 0;
    return k;
  }

  void start(const workload::KernelSpec& k, unsigned resident) {
    std::deque<unsigned> blocks;
    for (unsigned b = 0; b < k.grid_blocks; ++b) blocks.push_back(b);
    sm_.start_kernel(k, std::move(blocks), resident,
                     static_cast<std::uint64_t>(k.grid_blocks) * k.warps_per_block(), 42);
  }

  /// Responds to every outstanding transaction.
  void respond_all() {
    std::vector<SentTxn> txns;
    txns.swap(sent_);
    for (const SentTxn& t : txns) {
      L2Response resp;
      resp.id = t.id;
      resp.addr = t.addr;
      resp.is_store = t.is_store;
      resp.sm_id = 0;
      resp.ready = now_;
      sm_.on_response(resp, now_, send_);
    }
  }

  void run_cycles(unsigned n) {
    for (unsigned i = 0; i < n; ++i) sm_.cycle(now_++, send_);
  }

  GpuConfig cfg_;
  Sm sm_;
  SendTxnFn send_;
  std::vector<SentTxn> sent_;
  std::uint64_t next_id_ = 1;
  Cycle now_ = 0;
};

TEST_F(SmTest, IssuesLoadsAndBlocksOnMisses) {
  start(loads_kernel(), /*resident=*/2);
  run_cycles(4);
  // Two warps, each issued one blocking load: two transactions, then idle.
  EXPECT_EQ(sent_.size(), 2u);
  EXPECT_FALSE(sent_[0].is_store);
  EXPECT_EQ(sm_.stats().issued_instructions, 2u);
  EXPECT_EQ(sm_.inflight(), 2u);
  const auto idle_before = sm_.stats().idle_cycles;
  run_cycles(10);
  EXPECT_GT(sm_.stats().idle_cycles, idle_before);  // everyone blocked
  EXPECT_EQ(sm_.stats().issued_instructions, 2u);
}

TEST_F(SmTest, ResponsesWakeWarps) {
  start(loads_kernel(), 2);
  run_cycles(4);
  respond_all();
  EXPECT_EQ(sm_.inflight(), 0u);
  run_cycles(cfg_.l1_hit_latency + 8);
  // Warps resumed and issued further loads.
  EXPECT_GT(sm_.stats().issued_instructions, 2u);
}

TEST_F(SmTest, RunsKernelToCompletionWithPromptMemory) {
  start(loads_kernel(30), 2);
  for (int i = 0; i < 20000 && !sm_.kernel_done(); ++i) {
    sm_.cycle(now_++, send_);
    respond_all();
  }
  EXPECT_TRUE(sm_.kernel_done());
  // 4 blocks x 1 warp x 30 instructions.
  EXPECT_EQ(sm_.stats().issued_instructions, 4u * 30u);
  EXPECT_EQ(sm_.inflight(), 0u);
}

TEST_F(SmTest, FinishedBlocksLaunchQueuedBlocks) {
  start(loads_kernel(10), /*resident=*/1);  // 4 blocks through 1 slot
  for (int i = 0; i < 20000 && !sm_.kernel_done(); ++i) {
    sm_.cycle(now_++, send_);
    respond_all();
  }
  EXPECT_TRUE(sm_.kernel_done());
  EXPECT_EQ(sm_.stats().issued_instructions, 40u);
}

TEST_F(SmTest, StoreCreditsThrottleIssue) {
  workload::KernelSpec k = loads_kernel(200);
  k.store_fraction = 1.0;  // all stores (global: every one goes to L2)
  // Keep the store probability at 1.0 in both phases (stores_at_end equal
  // to the epilogue share means no concentration).
  k.stores_at_end_fraction = k.epilogue_fraction;
  cfg_.max_outstanding_store_txn = 4;
  Sm sm(0, cfg_);
  std::deque<unsigned> blocks{0};
  sm.start_kernel(k, std::move(blocks), 1, 1, 42);

  Cycle now = 0;
  for (int i = 0; i < 50; ++i) sm.cycle(now++, send_);
  // Stores are fire-and-forget but bounded by the 4 credits.
  EXPECT_LE(sent_.size(), 4u);
  EXPECT_GT(sm.stats().stall_cycles, 0u);
}

TEST_F(SmTest, MshrMergesSameLineLoads) {
  // Two warps with identical streams (same kernel, resident 2 -> different
  // warp ids, so different addresses). Force same-line loads via reuse of a
  // tiny footprint instead.
  workload::KernelSpec k = loads_kernel(40);
  k.pattern.footprint_bytes = 256;  // everything lands on two 128B lines
  start(k, 4);
  run_cycles(30);
  // 4 warps requested from at most 2 distinct lines: merges must occur.
  EXPECT_GT(sm_.stats().mshr_merges, 0u);
  EXPECT_LT(sent_.size(), 4u);
}

TEST_F(SmTest, LocalStoresStayInL1UntilFlush) {
  workload::KernelSpec k = loads_kernel(20);
  k.store_fraction = 1.0;
  k.local_fraction = 1.0;  // all local stores: write-back L1
  start(k, 1);
  for (int i = 0; i < 2000 && !sm_.kernel_done(); ++i) {
    sm_.cycle(now_++, send_);
    respond_all();
  }
  ASSERT_TRUE(sm_.kernel_done());
  const std::size_t before_flush = sent_.size();
  sm_.flush_l1(now_, send_);
  // The flush emits the dirty local lines as L2 writes.
  EXPECT_GT(sent_.size(), before_flush);
  for (std::size_t i = before_flush; i < sent_.size(); ++i) {
    EXPECT_TRUE(sent_[i].is_store);
  }
}

TEST_F(SmTest, SharedMemoryOpsNeverReachL2) {
  workload::KernelSpec k = loads_kernel(40);
  k.mem_fraction = 1.0;
  k.const_fraction = 0.0;
  k.shared_fraction = 1.0;  // all shared: intra-SM
  start(k, 2);
  for (int i = 0; i < 4000 && !sm_.kernel_done(); ++i) sm_.cycle(now_++, send_);
  EXPECT_TRUE(sm_.kernel_done());
  EXPECT_TRUE(sent_.empty());  // nothing went to the memory system
  EXPECT_GT(sm_.stats().shared_accesses, 0u);
}

TEST_F(SmTest, GtoPrefersTheLastIssuedWarp) {
  workload::KernelSpec k = loads_kernel(50);
  k.mem_fraction = 0.0;  // pure compute: no blocking
  k.compute_latency = 1;
  start(k, 2);
  // With compute latency 1 and GTO, the same warp can issue every other
  // cycle; LRR would alternate. Count consecutive-issue pairs by watching
  // instruction attribution indirectly: total instructions must advance
  // every cycle once warmed up.
  run_cycles(30);
  EXPECT_GT(sm_.stats().issued_instructions, 25u);
}

}  // namespace
}  // namespace sttgpu::gpu
