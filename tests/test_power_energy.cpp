#include "power/energy.hpp"

#include <gtest/gtest.h>

namespace sttgpu::power {
namespace {

TEST(EnergyLedger, AccumulatesByCategory) {
  EnergyLedger ledger;
  ledger.add(ledger.intern("l2.data_write"), 100.0);
  ledger.add(ledger.intern("l2.data_write"), 50.0);
  ledger.add(ledger.intern("l2.tag_probe"), 10.0);
  EXPECT_DOUBLE_EQ(ledger.category_pj("l2.data_write"), 150.0);
  EXPECT_DOUBLE_EQ(ledger.category_pj("l2.tag_probe"), 10.0);
  EXPECT_DOUBLE_EQ(ledger.category_pj("unknown"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_pj(), 160.0);
}

TEST(EnergyLedger, MergeAndReset) {
  EnergyLedger a, b;
  a.add(a.intern("x"), 1.0);
  b.add(b.intern("x"), 2.0);
  b.add(b.intern("y"), 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.category_pj("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.category_pj("y"), 3.0);
  EXPECT_DOUBLE_EQ(a.total_pj(), 6.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total_pj(), 0.0);
  EXPECT_TRUE(a.categories().empty());
}

TEST(EnergyLedger, InternedHandlesAliasStringCategories) {
  EnergyLedger l;
  const EnergyId id = l.intern("l2.write");
  EXPECT_EQ(l.intern("l2.write"), id);  // idempotent
  l.add(id, 2.0);
  l.add(l.intern("l2.write"), 3.0);  // re-interning yields the same slot
  EXPECT_DOUBLE_EQ(l.category_pj("l2.write"), 5.0);
  EXPECT_DOUBLE_EQ(l.total_pj(), 5.0);
  // Interning alone creates the category at zero (visible in categories()).
  l.intern("l2.read");
  const auto cats = l.categories();
  EXPECT_EQ(cats.size(), 2u);
  EXPECT_DOUBLE_EQ(cats.at("l2.read"), 0.0);
}

TEST(EnergyLedger, MergeResolvesByNameNotById) {
  // The same category can have different ids in different ledgers (banks
  // intern in construction order); merge must match by name.
  EnergyLedger a, b;
  a.intern("alpha");
  a.add(a.intern("beta"), 1.0);
  b.add(b.intern("beta"), 2.0);
  b.add(b.intern("alpha"), 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.category_pj("alpha"), 4.0);
  EXPECT_DOUBLE_EQ(a.category_pj("beta"), 3.0);
  EXPECT_DOUBLE_EQ(a.total_pj(), 7.0);
}

}  // namespace
}  // namespace sttgpu::power
