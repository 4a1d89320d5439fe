// Parameterized configuration sweep of the two-part bank: the structural
// invariants must hold for every combination of search policy, threshold,
// LR associativity and buffer size.
#include <gtest/gtest.h>

#include <cstdint>

#include "bank_harness.hpp"
#include "common/rng.hpp"

namespace sttgpu::sttl2 {
namespace {

using Harness = sttgpu::testing::TwoPartHarness;

struct ParamCase {
  /// A SearchPolicy widened to 4 bytes. gtest names each case after the raw
  /// bytes of its parameter, and a 1-byte field would leave three
  /// uninitialised padding bytes in those names, different on every run.
  std::uint32_t search;
  unsigned threshold;
  unsigned lr_assoc;  // 0 = fully associative
  unsigned buffer_lines;

  SearchPolicy policy() const { return static_cast<SearchPolicy>(search); }
};

constexpr auto kSequential = static_cast<std::uint32_t>(SearchPolicy::kSequential);
constexpr auto kParallel = static_cast<std::uint32_t>(SearchPolicy::kParallel);

std::string case_name(const ::testing::TestParamInfo<ParamCase>& info) {
  const ParamCase& p = info.param;
  return std::string(to_string(p.policy())) + "_th" + std::to_string(p.threshold) + "_a" +
         std::to_string(p.lr_assoc) + "_b" + std::to_string(p.buffer_lines);
}

class TwoPartSweep : public ::testing::TestWithParam<ParamCase> {
 protected:
  TwoPartBankConfig config() const {
    TwoPartBankConfig c;
    c.hr_bytes = 14 * 1024;
    c.lr_bytes = 2 * 1024;
    c.search = GetParam().policy();
    c.write_threshold = GetParam().threshold;
    c.lr_assoc = GetParam().lr_assoc;
    c.buffer_lines = GetParam().buffer_lines;
    return c;
  }
};

/// 150 bursts of three random loads/stores over 56 lines; returns the count.
std::uint64_t send_random_traffic(Harness& h) {
  Rng rng(42);
  std::uint64_t sent = 0;
  for (int burst = 0; burst < 150; ++burst) {
    for (int i = 0; i < 3; ++i) {
      h.send(rng.next_below(56) * 256, rng.chance(0.5));
      ++sent;
    }
    h.run(25);
  }
  return sent;
}

/// With faults off, every DRAM writeback has one of the bank's four sources.
void expect_writebacks_have_one_source(Harness& h) {
  const auto& c = h.bank().counters();
  EXPECT_EQ(h.bank().stats().dram_writebacks,
            c.get("lr_forced_wb") + c.get("hr_evict_dirty") + c.get("refresh_forced_wb") +
                c.get("hr_expired_dirty"));
}

TEST_P(TwoPartSweep, InvariantsHoldUnderRandomTraffic) {
  Harness h(config());
  const std::uint64_t sent = send_random_traffic(h);
  h.drain();

  // 1. Every request got exactly one response.
  EXPECT_EQ(h.responses().size(), sent);

  // 2. Single residency: no line in both parts.
  for (Addr a = 0; a < 56 * 256; a += 256) {
    EXPECT_FALSE(h.bank().lr_tags().probe(a).has_value() &&
                 h.bank().hr_tags().probe(a).has_value())
        << "line " << std::hex << a;
  }

  // 3. Demand-store accounting balances.
  const auto& c = h.bank().counters();
  EXPECT_EQ(c.get("w_demand"), c.get("w_lr") + c.get("w_hr"));

  // 4. Stats identities.
  const auto& s = h.bank().stats();
  EXPECT_EQ(s.accesses(), sent);
  EXPECT_EQ(s.writes(), c.get("w_demand"));

  // 5. The bank quiesced cleanly.
  EXPECT_TRUE(h.bank().idle());

  // 6. Energy strictly positive.
  EXPECT_GT(h.bank().energy().total_pj(), 0.0);

  // 7. With faults off, every physical array write has one source. LR: demand
  // writes (hits and migrations) and refreshes. HR: demand writes, fills, and
  // the LR evictions the LR->HR buffer accepted.
  EXPECT_EQ(c.get("lr_phys_writes"), c.get("w_lr") + c.get("refreshes"));
  EXPECT_EQ(c.get("hr_phys_writes"), c.get("w_hr") + s.dram_reads + c.get("lr_evictions") -
                                         c.get("lr_forced_wb") - c.get("lr_forced_drop"));
  expect_writebacks_have_one_source(h);
}

TEST_P(TwoPartSweep, RetentionEventsFireAtShortRetention) {
  // The same traffic at 2 us LR and 10 us HR retention, then an idle gap:
  // drain() stops once the bank is idle, so without the gap no deadline
  // comes due and neither refresh nor expiry would ever run.
  TwoPartBankConfig cfg = config();
  cfg.lr_retention_s = 2e-6;
  cfg.hr_retention_s = 1e-5;
  Harness h(cfg);
  const std::uint64_t sent = send_random_traffic(h);
  h.run(20000);
  h.drain();

  EXPECT_EQ(h.responses().size(), sent);
  const auto& c = h.bank().counters();
  EXPECT_GT(c.get("refreshes"), 0u);
  EXPECT_GT(c.get("hr_expired_dirty") + c.get("hr_expired_clean"), 0u);
  // A one-line LR->HR buffer is full often enough that a refresh has to
  // write back or drop a line instead of moving it.
  if (GetParam().buffer_lines == 1) {
    EXPECT_GT(c.get("refresh_forced_wb") + c.get("refresh_forced_drop"), 0u);
  }
  EXPECT_EQ(c.get("lr_phys_writes"), c.get("w_lr") + c.get("refreshes"));
  expect_writebacks_have_one_source(h);
}

TEST_P(TwoPartSweep, DeterministicReplay) {
  const auto run_once = [&] {
    Harness h(config());
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      h.send(rng.next_below(48) * 256, rng.chance(0.4));
      h.run(11);
    }
    h.drain();
    return std::tuple{h.now(), h.bank().stats().read_hits, h.bank().stats().write_hits,
                      h.bank().energy().total_pj()};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TwoPartSweep,
    ::testing::Values(ParamCase{kSequential, 1, 2, 10},
                      ParamCase{kParallel, 1, 2, 10},
                      ParamCase{kSequential, 3, 2, 10},
                      ParamCase{kSequential, 7, 2, 10},
                      ParamCase{kSequential, 1, 1, 10},
                      ParamCase{kSequential, 1, 4, 10},
                      ParamCase{kSequential, 1, 0, 10},
                      ParamCase{kSequential, 1, 2, 1},
                      ParamCase{kSequential, 1, 2, 2},
                      ParamCase{kParallel, 3, 0, 2}),
    case_name);

}  // namespace
}  // namespace sttgpu::sttl2
