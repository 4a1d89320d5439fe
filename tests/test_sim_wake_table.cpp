// WakeTable unit tests: exact-cycle pops, same-cycle ordering, past-deadline
// clamping, tightening, distant deadlines and the exact next deadline.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "sim/wake_table.hpp"

namespace sttgpu::sim {
namespace {

std::vector<unsigned> ids_of(std::uint64_t mask) {
  std::vector<unsigned> ids;
  for (; mask != 0; mask &= mask - 1) {
    ids.push_back(static_cast<unsigned>(std::countr_zero(mask)));
  }
  return ids;
}

TEST(WakeTable, PopsAtExactCycleOnly) {
  WakeTable t(8);
  t.post(3, 10);
  for (Cycle c = 0; c < 10; ++c) EXPECT_EQ(t.pop_due(c), 0u) << c;
  EXPECT_EQ(t.pop_due(10), 1ull << 3);
  EXPECT_EQ(t.next_deadline(), kNoCycle);  // consumed
  EXPECT_EQ(t.pop_due(11), 0u);
}

TEST(WakeTable, SameCycleYieldsAscendingIdMask) {
  WakeTable t(64);
  // Post in scrambled order; the mask is inherently id-ordered, which is
  // what gives the hot loop its bank-then-SM ascending visit order.
  for (const unsigned id : {17u, 2u, 63u, 0u, 41u}) t.post(id, 5);
  const std::uint64_t due = t.pop_due(5);
  EXPECT_EQ(ids_of(due), (std::vector<unsigned>{0, 2, 17, 41, 63}));
}

TEST(WakeTable, PastDeadlineClampsToNextPop) {
  WakeTable t(4);
  ASSERT_EQ(t.pop_due(20), 0u);  // the next pop is at cycle 21
  t.post(1, 3);                  // long past; must not be lost
  EXPECT_EQ(t.next_deadline(), 21u);
  EXPECT_EQ(t.pop_due(21), 1ull << 1);
}

TEST(WakeTable, TighteningKeepsEarliest) {
  WakeTable t(4);
  t.post(2, 100);
  t.post(2, 40);  // earlier wins
  EXPECT_EQ(t.next_deadline(), 40u);
  t.post(2, 60);  // later than the posted deadline: no-op
  EXPECT_EQ(t.next_deadline(), 40u);
  std::uint64_t due = 0;
  for (Cycle c = 0; c <= 100; ++c) due |= t.pop_due(c) << (c == 40 ? 0 : 32);
  // Fires at 40 only; the superseded 100 never fires.
  EXPECT_EQ(due, 1ull << 2);
}

TEST(WakeTable, NextDeadlineIgnoresASupersededPost) {
  WakeTable t(4);
  t.post(0, 100);
  t.post(0, 50);
  EXPECT_EQ(t.pop_due(50), 1ull << 0);
  EXPECT_EQ(t.next_deadline(), kNoCycle);
}

TEST(WakeTable, DistantDeadlinePopsAtExactCycle) {
  WakeTable t(8);
  const Cycle far = 3 * 1024 + 17;
  t.post(5, far);
  // Step in jumps, the last of which lands exactly on the deadline.
  Cycle c = 0;
  std::uint64_t due = 0;
  while (c < far) {
    c += 512;
    if (c > far) c = far;
    const std::uint64_t got = t.pop_due(c);
    if (got != 0) {
      EXPECT_EQ(c, far);
      due |= got;
    }
  }
  EXPECT_EQ(due, 1ull << 5);
  EXPECT_EQ(t.next_deadline(), kNoCycle);
}

TEST(WakeTable, LargeJumpPopsEveryMaturedId) {
  WakeTable t(16);
  for (unsigned id = 0; id < 16; ++id) t.post(id, 3 + 61 * id);
  EXPECT_EQ(t.pop_due(1000), 0xFFFFull);
  EXPECT_EQ(t.next_deadline(), kNoCycle);
}

TEST(WakeTable, NextDeadlineIsTheMinimumOfThePostedIds) {
  WakeTable t(8);
  EXPECT_EQ(t.next_deadline(), kNoCycle);
  t.post(2, 5000);
  EXPECT_EQ(t.next_deadline(), 5000u);
  t.post(3, 12);
  t.post(4, 30);
  EXPECT_EQ(t.next_deadline(), 12u);
  EXPECT_EQ(t.pop_due(12), 1ull << 3);
  EXPECT_EQ(t.next_deadline(), 30u);  // recomputed by the pop
  EXPECT_EQ(t.pop_due(29), 0u);
  EXPECT_EQ(t.pop_due(30), 1ull << 4);
  EXPECT_EQ(t.next_deadline(), 5000u);
}

}  // namespace
}  // namespace sttgpu::sim
