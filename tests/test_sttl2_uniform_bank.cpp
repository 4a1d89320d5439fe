#include <gtest/gtest.h>

#include "bank_harness.hpp"
#include "nvm/cell.hpp"

namespace sttgpu::sttl2 {
namespace {

using testing_harness = sttgpu::testing::UniformHarness;
using sttgpu::testing::earliest_resident_deadline;

UniformBankConfig sram_cfg() {
  UniformBankConfig c;
  c.capacity_bytes = 16 * 1024;  // 8 sets x 8 ways of 256B
  return c;
}

TEST(UniformBank, ReadMissFetchesFromDramThenResponds) {
  testing_harness h(sram_cfg());
  const auto id = h.send(0x1000, /*is_store=*/false);
  h.run(5);
  EXPECT_FALSE(h.responded(id));  // DRAM latency not elapsed
  EXPECT_EQ(h.bank().stats().read_misses, 1u);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.dram().reads(), 1u);
}

TEST(UniformBank, ReadHitIsFastAndLocal) {
  testing_harness h(sram_cfg());
  h.send(0x1000, false);
  h.drain();
  const auto id = h.send(0x1000, false);
  h.run(60);
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.bank().stats().read_hits, 1u);
  EXPECT_EQ(h.dram().reads(), 1u);  // no second fetch
}

TEST(UniformBank, SecondaryMissesMergeIntoOneFill) {
  testing_harness h(sram_cfg());
  const auto a = h.send(0x2000, false);
  const auto b = h.send(0x2000, false);
  const auto c = h.send(0x2080, false);  // same 256B line
  h.drain();
  EXPECT_TRUE(h.responded(a));
  EXPECT_TRUE(h.responded(b));
  EXPECT_TRUE(h.responded(c));
  EXPECT_EQ(h.dram().reads(), 1u);
  EXPECT_EQ(h.bank().stats().read_misses, 3u);
}

TEST(UniformBank, WriteMissFetchesThenApplies) {
  testing_harness h(sram_cfg());
  const auto id = h.send(0x3000, /*is_store=*/true);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.bank().stats().write_misses, 1u);
  EXPECT_EQ(h.dram().reads(), 1u);  // fetch-on-write
  // Line is now dirty: evicting it must write back.
}

TEST(UniformBank, DirtyEvictionWritesBack) {
  testing_harness h(sram_cfg());
  // 16KB, 8 sets: set stride = 8 * 256 = 2KB. Fill 9 lines in set 0.
  h.send(0x0, true);
  h.drain();
  for (int i = 1; i <= 8; ++i) h.send(static_cast<Addr>(i) * 2048, false);
  h.drain();
  EXPECT_EQ(h.dram().writes(), 1u);
  EXPECT_EQ(h.bank().counters().get("evict_dirty"), 1u);
}

TEST(UniformBank, EnergyChargedPerEvent) {
  testing_harness h(sram_cfg());
  h.send(0x100, false);
  h.drain();
  const auto& e = h.bank().energy();
  EXPECT_GT(e.category_pj("l2.tag_probe"), 0.0);
  EXPECT_GT(e.category_pj("l2.data_write"), 0.0);  // the fill
  h.send(0x100, false);
  h.drain();
  EXPECT_GT(e.category_pj("l2.data_read"), 0.0);
}

TEST(UniformBank, SttWritesOccupyLongerThanSramWrites) {
  // The paper's performance mechanism: 10-year STT writes serialize access.
  UniformBankConfig stt = sram_cfg();
  stt.cell = nvm::stt_cell(nvm::RetentionClass::kYears10);
  stt.subbanks = 1;
  UniformBankConfig sram = sram_cfg();
  sram.subbanks = 1;

  const auto time_burst = [](const UniformBankConfig& cfg) {
    testing_harness h(cfg);
    // Warm the lines.
    for (int i = 0; i < 8; ++i) h.send(static_cast<Addr>(i) * 256, false);
    h.drain();
    h.responses().clear();
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(h.send(static_cast<Addr>(i) * 256, true));
    h.drain();
    Cycle last = 0;
    for (const auto& r : h.responses()) last = std::max(last, r.ready);
    return last;
  };

  EXPECT_GT(time_burst(stt), time_burst(sram));
}

TEST(UniformBank, VolatileCellsExpireWithoutRefresh) {
  // A uniform bank of low-retention cells loses idle lines: dirty ones are
  // written back, clean ones invalidated.
  UniformBankConfig cfg = sram_cfg();
  cfg.cell = nvm::stt_cell(nvm::RetentionClass::kUs26);  // 18550 cycles
  testing_harness h(cfg);
  h.send(0x100, true);   // dirty line
  h.send(0x2100, false); // clean line (different set)
  h.drain();
  const auto writes_before = h.dram().writes();
  h.run(25000);  // beyond 26.5us
  EXPECT_EQ(h.bank().counters().get("expired_dirty"), 1u);
  EXPECT_EQ(h.bank().counters().get("expired_clean"), 1u);
  EXPECT_EQ(h.dram().writes(), writes_before + 1);
  // Re-reading the expired line misses again.
  h.send(0x100, false);
  h.drain();
  EXPECT_EQ(h.dram().reads(), 3u);
}

TEST(UniformBank, NextEventIsTheEarliestResidentDeadline) {
  // One pending expiry per resident line: 17 fills into one 8-way set
  // (stride 0x800) evict the first nine; once the first line's deadline has
  // passed, the next event is a resident line's deadline.
  UniformBankConfig cfg = sram_cfg();
  cfg.cell = nvm::stt_cell(nvm::RetentionClass::kUs26);  // 18550 cycles
  testing_harness h(cfg);
  Cycle first_deadline = kNoCycle;
  for (Addr i = 0; i < 17; ++i) {
    h.send(i * 0x800, false);
    h.drain();
    if (i == 0) first_deadline = earliest_resident_deadline(h.bank().tags());
    h.run(50);
  }
  ASSERT_FALSE(h.bank().tags().probe(0x0).has_value());
  h.run(first_deadline + 1 - h.now());
  const Cycle expected = earliest_resident_deadline(h.bank().tags());
  EXPECT_GT(expected, first_deadline);
  EXPECT_EQ(h.bank().next_event_cycle(), expected);
  EXPECT_EQ(h.bank().counters().get("expired_clean"), 0u);
}

TEST(UniformBank, RewriteIntervalsTracked) {
  testing_harness h(sram_cfg());
  h.send(0x100, true);
  h.drain();
  h.send(0x100, true);
  h.drain();
  EXPECT_EQ(h.bank().rewrite_intervals().intervals(), 1u);
}

TEST(UniformBank, NonVolatileCellsNeverExpire) {
  UniformBankConfig cfg = sram_cfg();
  cfg.cell = nvm::stt_cell(nvm::RetentionClass::kYears10);
  testing_harness h(cfg);
  h.send(0x100, true);
  h.drain();
  h.run(1'000'000);
  EXPECT_EQ(h.bank().counters().get("expired_dirty"), 0u);
  const auto id = h.send(0x100, false);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.bank().stats().read_hits, 1u);
}

}  // namespace
}  // namespace sttgpu::sttl2
