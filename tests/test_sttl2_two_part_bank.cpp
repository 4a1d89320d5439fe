// Behavioural tests of the paper's two-part LR/HR L2 bank: migration on the
// write threshold, fills landing in HR, LR refresh keeping data alive,
// eviction back to HR, buffer-overflow forced writebacks, the
// single-residency invariant and search-policy equivalence.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bank_harness.hpp"
#include "common/rng.hpp"

namespace sttgpu::sttl2 {
namespace {

using Harness = sttgpu::testing::TwoPartHarness;
using sttgpu::testing::earliest_resident_deadline;

TwoPartBankConfig small_cfg() {
  TwoPartBankConfig c;
  c.hr_bytes = 14 * 1024;  // 56 lines, 7-way => 8 sets
  c.lr_bytes = 2 * 1024;   // 8 lines, 2-way => 4 sets
  return c;
}

/// True iff the line holding @p addr is valid in the given tag array.
bool resident(const cache::TagArray& tags, Addr addr) {
  return tags.probe(addr).has_value();
}

TEST(TwoPartBank, RejectsInvertedRetentions) {
  TwoPartBankConfig c = small_cfg();
  c.lr_retention_s = 1.0;
  c.hr_retention_s = 1e-6;
  gpu::GpuConfig gcfg;
  gpu::DramChannel dram(gcfg, [](std::uint64_t, Cycle) {});
  EXPECT_THROW(TwoPartBank(0, c, gcfg.clock(), dram), SimError);
}

TEST(TwoPartBank, FillsLandInHr) {
  Harness h(small_cfg());
  const auto id = h.send(0x1000, false);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_TRUE(resident(h.bank().hr_tags(), 0x1000));
  EXPECT_FALSE(resident(h.bank().lr_tags(), 0x1000));
}

TEST(TwoPartBank, FirstWriteStaysInHr) {
  Harness h(small_cfg());
  h.send(0x1000, false);  // fill
  h.drain();
  h.send(0x1000, true);   // first write: counter 0 < threshold 1
  h.drain();
  EXPECT_TRUE(resident(h.bank().hr_tags(), 0x1000));
  EXPECT_FALSE(resident(h.bank().lr_tags(), 0x1000));
  EXPECT_EQ(h.bank().counters().get("migrations"), 0u);
  EXPECT_EQ(h.bank().counters().get("w_hr"), 1u);
}

TEST(TwoPartBank, SecondWriteMigratesToLr) {
  // The paper's WWS monitor with TH1 == the modified bit: a write to an
  // already-dirty HR block moves it to the LR part.
  Harness h(small_cfg());
  h.send(0x1000, false);
  h.drain();
  h.send(0x1000, true);
  h.drain();
  h.send(0x1000, true);
  h.drain();
  EXPECT_EQ(h.bank().counters().get("migrations"), 1u);
  EXPECT_FALSE(resident(h.bank().hr_tags(), 0x1000));
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x1000));
  EXPECT_EQ(h.bank().counters().get("w_lr"), 1u);

  // Subsequent reads are served from LR (no DRAM trip).
  const auto reads_before = h.dram().reads();
  const auto id = h.send(0x1000, false);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.dram().reads(), reads_before);
}

TEST(TwoPartBank, HigherThresholdDelaysMigration) {
  TwoPartBankConfig cfg = small_cfg();
  cfg.write_threshold = 3;
  Harness h(cfg);
  h.send(0x1000, false);
  h.drain();
  for (int i = 0; i < 3; ++i) {
    h.send(0x1000, true);
    h.drain();
  }
  EXPECT_EQ(h.bank().counters().get("migrations"), 0u);
  h.send(0x1000, true);  // 4th write: counter reached 3
  h.drain();
  EXPECT_EQ(h.bank().counters().get("migrations"), 1u);
}

TEST(TwoPartBank, StoreMissFetchesAndAppliesInHr) {
  Harness h(small_cfg());
  const auto id = h.send(0x2000, true);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.dram().reads(), 1u);  // fetch-on-write
  EXPECT_TRUE(resident(h.bank().hr_tags(), 0x2000));
  EXPECT_EQ(h.bank().counters().get("w_hr"), 1u);
}

TEST(TwoPartBank, LrEvictionReturnsBlockToHr) {
  // LR is 4 sets x 2 ways; lines 0x0, 0x400, 0x800 share LR set 0
  // (LR set stride = 4 * 256 = 1KB). Migrate three of them.
  Harness h(small_cfg());
  const Addr addrs[] = {0x0, 0x400, 0x800};
  for (const Addr a : addrs) {
    h.send(a, false);
    h.drain();
    h.send(a, true);
    h.drain();
    h.send(a, true);  // migrate
    h.drain();
  }
  EXPECT_EQ(h.bank().counters().get("migrations"), 3u);
  EXPECT_EQ(h.bank().counters().get("lr_evictions"), 1u);
  // The evicted block (LRU: the first) is back in HR, still cached.
  EXPECT_TRUE(resident(h.bank().hr_tags(), 0x0));
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x400));
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x800));
}

TEST(TwoPartBank, SingleResidencyInvariantUnderRandomTraffic) {
  // Property: no line address is ever valid in both parts.
  Harness h(small_cfg());
  Rng rng(99);
  for (int burst = 0; burst < 200; ++burst) {
    for (int i = 0; i < 4; ++i) {
      const Addr a = rng.next_below(64) * 256;  // 64 distinct lines
      h.send(a, rng.chance(0.5));
    }
    h.run(30);
  }
  h.drain();
  std::size_t checked = 0;
  for (Addr a = 0; a < 64 * 256; a += 256) {
    const bool in_lr = resident(h.bank().lr_tags(), a);
    const bool in_hr = resident(h.bank().hr_tags(), a);
    EXPECT_FALSE(in_lr && in_hr) << "line " << std::hex << a << " in both parts";
    checked += (in_lr || in_hr);
  }
  EXPECT_GT(checked, 0u);
}

TEST(TwoPartBank, DemandStoreAccountingBalances) {
  Harness h(small_cfg());
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    h.send(rng.next_below(48) * 256, rng.chance(0.6));
    h.run(10);
  }
  h.drain();
  const auto& c = h.bank().counters();
  // Every demand store was eventually applied in exactly one part.
  EXPECT_EQ(c.get("w_demand"), c.get("w_lr") + c.get("w_hr"));
  EXPECT_GT(c.get("w_demand"), 0u);
}

TEST(TwoPartBank, RefreshKeepsLrDataAlive) {
  Harness h(small_cfg());  // LR retention 26.5us = 18550 cycles
  h.send(0x1000, false);
  h.drain();
  h.send(0x1000, true);
  h.drain();
  h.send(0x1000, true);  // now in LR
  h.drain();
  ASSERT_TRUE(resident(h.bank().lr_tags(), 0x1000));

  const auto reads_before = h.dram().reads();
  h.run(60000);  // ~3 retention periods
  EXPECT_GE(h.bank().counters().get("refreshes"), 2u);
  // Still resident and still served without DRAM.
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x1000));
  const auto id = h.send(0x1000, false);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.dram().reads(), reads_before);
  EXPECT_GT(h.bank().energy().category_pj("l2.lr.refresh"), 0.0);
}

TEST(TwoPartBank, RefreshForcedWritebackWhenBufferFull) {
  TwoPartBankConfig cfg = small_cfg();
  cfg.buffer_lines = 1;
  Harness h(cfg);
  // Put two lines into LR in different LR sets.
  for (const Addr a : {Addr{0x0}, Addr{0x100}}) {
    h.send(a, false);
    h.drain();
    h.send(a, true);
    h.drain();
    h.send(a, true);
    h.drain();
  }
  ASSERT_TRUE(resident(h.bank().lr_tags(), 0x0));
  ASSERT_TRUE(resident(h.bank().lr_tags(), 0x100));
  // Rewrite both lines in the same tick so their refresh deadlines land in
  // the same window; capacity 1 then forces one line to be written back to
  // DRAM and invalidated instead of refreshed.
  h.send(0x0, true);
  h.send(0x100, true);
  h.run(40000);
  const auto& c = h.bank().counters();
  EXPECT_GT(c.get("refresh_forced_wb") + c.get("refresh_forced_drop"), 0u);
}

TEST(TwoPartBank, HrExpiryInvalidatesStaleLines) {
  TwoPartBankConfig cfg = small_cfg();
  cfg.hr_retention_s = 1e-3;  // 700k cycles, test-friendly
  Harness h(cfg);
  h.send(0x1000, true);  // dirty line in HR
  h.send(0x3000, false); // clean line in HR
  h.drain();
  const auto writes_before = h.dram().writes();
  h.run(750'000);
  EXPECT_EQ(h.bank().counters().get("hr_expired_dirty"), 1u);
  EXPECT_EQ(h.bank().counters().get("hr_expired_clean"), 1u);
  EXPECT_EQ(h.dram().writes(), writes_before + 1);
  EXPECT_FALSE(resident(h.bank().hr_tags(), 0x1000));
}

TEST(TwoPartBank, NextEventIsTheEarliestResidentHrDeadline) {
  // Each resident HR line has exactly one pending expiry. Fifteen fills at
  // distinct cycles into one 7-way HR set (stride 0x800) evict the first
  // eight; once the first line's deadline has passed, the bank's next event
  // must be a resident line's deadline, not the next evicted line's.
  TwoPartBankConfig cfg = small_cfg();
  cfg.hr_retention_s = 1e-3;  // 700k cycles
  Harness h(cfg);
  Cycle first_deadline = kNoCycle;
  for (Addr i = 0; i < 15; ++i) {
    h.send(i * 0x800, false);
    h.drain();
    if (i == 0) first_deadline = earliest_resident_deadline(h.bank().hr_tags());
    h.run(100);
  }
  ASSERT_FALSE(resident(h.bank().hr_tags(), 0x0));
  h.run(first_deadline + 1 - h.now());
  const Cycle expected = earliest_resident_deadline(h.bank().hr_tags());
  EXPECT_GT(expected, first_deadline);
  EXPECT_EQ(h.bank().next_event_cycle(), expected);
  EXPECT_EQ(h.bank().counters().get("hr_expired_clean"), 0u);
}

TEST(TwoPartBank, PendingDeadlinesStayBoundedByResidentLines) {
  // Thousands of fills through the 56-line HR leave one pending expiry per
  // resident line, not one per fill.
  Harness h(small_cfg());
  for (Addr batch = 0; batch < 400; ++batch) {
    for (Addr i = 0; i < 8; ++i) h.send((batch * 8 + i) * 0x100, false);
    h.drain();
  }
  std::ostringstream os;
  h.bank().describe_state(os, h.now());
  const std::string state = os.str();
  const auto at = state.find("hr_expiry_q=");
  ASSERT_NE(at, std::string::npos) << state;
  const unsigned long pending = std::stoul(state.substr(at + 12));
  EXPECT_LE(pending, 56u);
  EXPECT_EQ(pending, h.bank().hr_tags().valid_count());
}

TEST(TwoPartBank, SearchPoliciesAgreeOnOutcomes) {
  const auto run_traffic = [](SearchPolicy policy) {
    TwoPartBankConfig cfg = small_cfg();
    cfg.search = policy;
    Harness h(cfg);
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
      h.send(rng.next_below(40) * 256, rng.chance(0.4));
      h.run(8);
    }
    h.drain();
    return std::tuple{h.bank().stats().read_hits, h.bank().stats().write_hits,
                      h.bank().counters().get("migrations"),
                      h.bank().counters().get("tag_probes_lr") +
                          h.bank().counters().get("tag_probes_hr")};
  };

  const auto seq = run_traffic(SearchPolicy::kSequential);
  const auto par = run_traffic(SearchPolicy::kParallel);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(par));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(par));
  EXPECT_EQ(std::get<2>(seq), std::get<2>(par));
  // Sequential search saves tag probes (its whole point).
  EXPECT_LT(std::get<3>(seq), std::get<3>(par));
}

TEST(TwoPartBank, FullyAssociativeLrWorks) {
  TwoPartBankConfig cfg = small_cfg();
  cfg.lr_assoc = 0;  // fully associative
  Harness h(cfg);
  for (const Addr a : {Addr{0x0}, Addr{0x400}, Addr{0x800}}) {
    h.send(a, false);
    h.drain();
    h.send(a, true);
    h.drain();
    h.send(a, true);
    h.drain();
  }
  // With 8 fully-associative LR lines, all three coexist (no set conflicts).
  EXPECT_EQ(h.bank().counters().get("lr_evictions"), 0u);
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x0));
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x400));
  EXPECT_TRUE(resident(h.bank().lr_tags(), 0x800));
}

TEST(TwoPartBank, EnergyCategoriesCharged) {
  Harness h(small_cfg());
  h.send(0x1000, false);
  h.drain();
  h.send(0x1000, true);
  h.drain();
  h.send(0x1000, true);  // migration
  h.drain();
  const auto& e = h.bank().energy();
  EXPECT_GT(e.category_pj("l2.hr.tag_probe"), 0.0);
  EXPECT_GT(e.category_pj("l2.lr.tag_probe"), 0.0);
  EXPECT_GT(e.category_pj("l2.hr.data_write"), 0.0);
  EXPECT_GT(e.category_pj("l2.lr.data_write"), 0.0);
  EXPECT_GT(e.category_pj("l2.buffer"), 0.0);
}

TEST(TwoPartBank, LrWritesAreCheaperThanHrWrites) {
  // Device-level sanity at the bank level: per-line write energy in LR is
  // below HR (that is the whole point of relaxed retention).
  Harness h(small_cfg());
  EXPECT_LT(h.bank().lr_costs().data_write_pj, h.bank().hr_costs().data_write_pj);
  EXPECT_LT(h.bank().lr_costs().data_write_latency_ns,
            h.bank().hr_costs().data_write_latency_ns);
}

TEST(TwoPartBank, RewriteIntervalsRecordedInLr) {
  Harness h(small_cfg());
  h.send(0x1000, false);
  h.drain();
  h.send(0x1000, true);
  h.drain();
  h.send(0x1000, true);  // migrate to LR
  h.drain();
  h.run(700);  // ~1us
  h.send(0x1000, true);  // rewrite in LR
  h.drain();
  EXPECT_EQ(h.bank().lr_rewrites().intervals(), 1u);
  // The interval (~1us) falls in the <=10us bucket.
  EXPECT_EQ(h.bank().lr_rewrites().histogram().bucket(0), 1u);
}

}  // namespace
}  // namespace sttgpu::sttl2
