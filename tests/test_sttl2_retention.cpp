#include "sttl2/retention.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"

namespace sttgpu::sttl2 {
namespace {

const Clock kClock(700e6);

TEST(RetentionClock, RejectsInvalidParameters) {
  EXPECT_THROW(RetentionClock(0.0, 4, kClock), SimError);
  EXPECT_THROW(RetentionClock(-1.0, 4, kClock), SimError);
  EXPECT_THROW(RetentionClock(26.5e-6, 0, kClock), SimError);
  // Counter so wide its tick would be < 1 cycle.
  EXPECT_THROW(RetentionClock(26.5e-6, 16, kClock), SimError);
}

TEST(RetentionClock, CyclesMatchPhysics) {
  const RetentionClock rc(26.5e-6, 4, kClock);
  // 26.5us at 700MHz = 18550 cycles.
  EXPECT_EQ(rc.retention_cycles(), 18550u);
  EXPECT_EQ(rc.tick_cycles(), 18550u / 16);
}

TEST(RetentionClock, DeadlineAndRefreshDue) {
  const RetentionClock rc(26.5e-6, 4, kClock);
  const Cycle written = 1000;
  EXPECT_EQ(rc.deadline(written), written + rc.retention_cycles());
  // Refresh is postponed to the last counter period before expiry.
  EXPECT_EQ(rc.refresh_due(written), rc.deadline(written) - rc.tick_cycles());
  EXPECT_LT(rc.refresh_due(written), rc.deadline(written));
  EXPECT_GT(rc.refresh_due(written), written);
}

TEST(RetentionClock, CounterValueTracksAge) {
  const RetentionClock rc(26.5e-6, 4, kClock);
  const Cycle written = 500;
  EXPECT_EQ(rc.counter_value(written, written), 0u);
  EXPECT_EQ(rc.counter_value(written, written - 10), 0u);  // clock skew safe
  EXPECT_EQ(rc.counter_value(written, written + rc.tick_cycles()), 1u);
  EXPECT_EQ(rc.counter_value(written, written + 5 * rc.tick_cycles()), 5u);
  // Saturates at 2^bits - 1.
  EXPECT_EQ(rc.counter_value(written, written + 100 * rc.retention_cycles()), 15u);
}

// Property over widths: refresh_due is always inside (written, deadline),
// and a wider counter postpones refresh further (smaller tick).
class CounterWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(CounterWidths, RefreshWindowShrinksWithWidth) {
  const unsigned bits = GetParam();
  const RetentionClock rc(26.5e-6, bits, kClock);
  const Cycle w = 42;
  EXPECT_GT(rc.refresh_due(w), w);
  EXPECT_LT(rc.refresh_due(w), rc.deadline(w));
  if (bits > 2) {
    const RetentionClock narrower(26.5e-6, bits - 1, kClock);
    EXPECT_GT(rc.refresh_due(w), narrower.refresh_due(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CounterWidths, ::testing::Values(2u, 3u, 4u, 6u, 8u));

TEST(RetentionClock, HrParametersFromThePaper) {
  // HR: 40ms with a 2-bit counter.
  const RetentionClock rc(40e-3, 2, kClock);
  EXPECT_EQ(rc.retention_cycles(), 28'000'000u);
  EXPECT_EQ(rc.tick_cycles(), 7'000'000u);
}

// DeadlineIndex: one pending deadline per (set, way) slot, popped in key
// order, equal keys in the order they were set.

/// Pops every pending slot as "set.way" strings, in pop order.
std::vector<std::string> drain(DeadlineIndex& q) {
  std::vector<std::string> out;
  while (q.next() != kNoCycle) {
    const DeadlineIndex::Slot s = q.pop_front();
    out.push_back(std::to_string(s.set) + "." + std::to_string(s.way));
  }
  return out;
}

using Order = std::vector<std::string>;

TEST(DeadlineIndex, EmptyReportsNoCycle) {
  DeadlineIndex q(4, 2);
  EXPECT_EQ(q.next(), kNoCycle);
  EXPECT_EQ(q.size(), 0u);
  q.erase(1, 1);  // nothing pending: a no-op, even before the first set()
  EXPECT_EQ(q.next(), kNoCycle);
  q.set(1, 1, 50);
  q.erase(1, 1);
  EXPECT_EQ(q.next(), kNoCycle);
  EXPECT_EQ(q.size(), 0u);
}

TEST(DeadlineIndex, PopsInKeyOrder) {
  DeadlineIndex q(4, 2);
  q.set(0, 0, 300);
  q.set(3, 1, 100);
  q.set(2, 0, 400);
  q.set(1, 1, 200);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.next(), 100u);
  EXPECT_EQ(drain(q), (Order{"3.1", "1.1", "0.0", "2.0"}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(DeadlineIndex, EqualKeysPopInInsertionOrder) {
  DeadlineIndex q(4, 2);
  q.set(2, 1, 100);
  q.set(0, 0, 100);
  q.set(3, 0, 50);
  q.set(1, 0, 100);
  q.set(0, 1, 100);
  EXPECT_EQ(drain(q), (Order{"3.0", "2.1", "0.0", "1.0", "0.1"}));
}

TEST(DeadlineIndex, ResetMovesTheSlot) {
  DeadlineIndex q(4, 2);
  q.set(0, 0, 100);
  q.set(1, 0, 200);
  q.set(2, 0, 300);
  q.set(0, 0, 250);  // later: one entry, moved behind 1.0
  EXPECT_EQ(q.size(), 3u);
  q.set(2, 0, 200);  // earlier, tied with 1.0: goes behind it
  EXPECT_EQ(q.size(), 3u);
  q.set(1, 0, 200);  // same key again: now behind 2.0
  EXPECT_EQ(q.next(), 200u);
  EXPECT_EQ(drain(q), (Order{"2.0", "1.0", "0.0"}));
}

TEST(DeadlineIndex, EraseAtHeadMiddleAndTail) {
  DeadlineIndex q(2, 4);
  for (unsigned way = 0; way < 4; ++way) q.set(1, way, 10 * (way + 1));
  q.set(0, 0, 50);
  q.erase(1, 0);  // head
  EXPECT_EQ(q.next(), 20u);
  q.erase(1, 2);  // middle
  q.erase(0, 0);  // tail
  EXPECT_EQ(q.size(), 2u);
  q.set(0, 3, 45);  // appends behind 1.3: the tail link survived the erase
  EXPECT_EQ(drain(q), (Order{"1.1", "1.3", "0.3"}));
}

TEST(DeadlineIndex, NearlySortedKeysKeepTheOrder) {
  // Keys are write cycles plus a constant and arrive slightly out of order
  // (writes start up to one tag latency after `now`); pops stay sorted.
  DeadlineIndex q(64, 4);
  Cycle key = 1000;
  for (unsigned i = 0; i < 256; ++i) {
    key += i % 3;
    q.set(i / 4, i % 4, key - (i % 2) * 3);
  }
  Cycle last = 0;
  while (q.next() != kNoCycle) {
    const Cycle k = q.next();
    EXPECT_GE(k, last);
    last = k;
    q.pop_front();
  }
}

}  // namespace
}  // namespace sttgpu::sttl2
