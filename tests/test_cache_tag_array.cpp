#include "cache/tag_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace sttgpu::cache {
namespace {

class TagArrayTest : public ::testing::Test {
 protected:
  CacheGeometry geom_{8 * 1024, 4, 256};  // 8 sets x 4 ways
  TagArray tags_{geom_};
};

TEST_F(TagArrayTest, EmptyArrayMissesEverything) {
  EXPECT_FALSE(tags_.probe(0x1000).has_value());
  EXPECT_EQ(tags_.valid_count(), 0u);
}

TEST_F(TagArrayTest, FillThenProbeHits) {
  const Addr addr = 0x4200;
  const unsigned way = tags_.pick_victim(addr);
  const LineMeta& line = tags_.fill(addr, way, 10);
  EXPECT_TRUE(tags_.valid(geom_.set_index(addr), way));
  EXPECT_EQ(line.insert_cycle, 10u);
  const auto hit = tags_.probe(addr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, way);
  // Another address in the same line also hits.
  EXPECT_TRUE(tags_.probe(addr + 255).has_value());
  // The next line does not.
  EXPECT_FALSE(tags_.probe(addr + 256).has_value());
}

TEST_F(TagArrayTest, InvalidateRemoves) {
  const Addr addr = 0x8000;
  const unsigned way = tags_.pick_victim(addr);
  tags_.fill(addr, way, 0);
  EXPECT_TRUE(tags_.probe(addr).has_value());
  tags_.invalidate(addr, way);
  EXPECT_FALSE(tags_.probe(addr).has_value());
  EXPECT_EQ(tags_.valid_count(), 0u);
}

TEST_F(TagArrayTest, FillResetsMetadata) {
  const Addr addr = 0x100;
  const unsigned way = tags_.pick_victim(addr);
  LineMeta& line = tags_.fill(addr, way, 5);
  line.dirty = true;
  line.write_count = 7;
  tags_.fill(addr, way, 9);  // refill same slot
  const LineMeta& fresh = tags_.line(geom_.set_index(addr), way);
  EXPECT_FALSE(fresh.dirty);
  EXPECT_EQ(fresh.write_count, 0u);
  EXPECT_EQ(fresh.last_write_cycle, kNoCycle);
  EXPECT_EQ(fresh.retention_deadline, kNoCycle);
}

TEST_F(TagArrayTest, VictimPrefersInvalidThenLru) {
  // Fill all four ways of one set with same-set addresses.
  const Addr base = 0x0;
  const std::uint64_t set_stride = geom_.num_sets() * geom_.line_bytes();
  std::vector<Addr> addrs;
  for (unsigned i = 0; i < 4; ++i) addrs.push_back(base + i * set_stride);
  for (const Addr a : addrs) tags_.fill(a, tags_.pick_victim(a), 0);
  EXPECT_EQ(tags_.valid_count(), 4u);

  // Touch all but the first: the first becomes LRU.
  for (unsigned i = 1; i < 4; ++i) tags_.touch(addrs[i], *tags_.probe(addrs[i]));
  const unsigned victim = tags_.pick_victim(base + 4 * set_stride);
  EXPECT_EQ(victim, *tags_.probe(addrs[0]));
}

TEST_F(TagArrayTest, ForEachValidVisitsExactlyValidLines) {
  for (int i = 0; i < 10; ++i) {
    const Addr a = static_cast<Addr>(i) * 256;
    tags_.fill(a, tags_.pick_victim(a), 0);
  }
  std::size_t visited = 0;
  tags_.for_each_valid([&](std::uint64_t set, unsigned way, LineMeta&) {
    EXPECT_TRUE(tags_.valid(set, way));
    ++visited;
  });
  EXPECT_EQ(visited, tags_.valid_count());
  EXPECT_EQ(visited, 10u);
}

TEST_F(TagArrayTest, ValidMaskTracksState) {
  const Addr addr = 0x2000;
  const std::uint64_t set = geom_.set_index(addr);
  auto mask = tags_.valid_mask(set);
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 0);
  tags_.fill(addr, 2, 0);
  mask = tags_.valid_mask(set);
  EXPECT_TRUE(mask[2]);
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 1);
  for (unsigned w = 0; w < geom_.associativity(); ++w) {
    EXPECT_EQ(tags_.valid(set, w), mask[w]);
  }
}

TEST(TagArrayStress, RandomTrafficNeverAliases) {
  // Property: after any traffic, a probe hit implies matching line address.
  CacheGeometry geom(16 * 1024, 4, 128);
  TagArray tags(geom);
  Rng rng(3);
  std::vector<Addr> live;
  for (int i = 0; i < 5000; ++i) {
    const Addr a = rng.next_below(1 << 18) & ~Addr{127};
    if (const auto way = tags.probe(a)) {
      EXPECT_EQ(tags.tag(geom.set_index(a), *way), geom.tag_of(a));
      tags.touch(a, *way);
    } else {
      tags.fill(a, tags.pick_victim(a), i);
    }
  }
  EXPECT_LE(tags.valid_count(), geom.num_lines());
}

// The TagArray's LRU on one fully-associative set: line i of the set is
// address i * line_bytes.

/// Fills every way of a one-set array in order, so way w holds line w.
void fill_all(TagArray& tags) {
  const CacheGeometry& g = tags.geometry();
  for (unsigned i = 0; i < g.associativity(); ++i) {
    const Addr a = static_cast<Addr>(i) * g.line_bytes();
    ASSERT_EQ(tags.pick_victim(a), i);  // first invalid way
    tags.fill(a, i, 0);
  }
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  TagArray tags(CacheGeometry(4 * 256, 4, 256));
  fill_all(tags);
  tags.touch(0, 0);  // way 1 is now LRU
  EXPECT_EQ(tags.pick_victim(0x10000), 1u);
  tags.touch(256, 1);
  EXPECT_EQ(tags.pick_victim(0x10000), 2u);
}

TEST(Lru, InvalidateMakesWayVictim) {
  TagArray tags(CacheGeometry(4 * 256, 4, 256));
  fill_all(tags);
  tags.invalidate(2 * 256, 2);
  EXPECT_EQ(tags.pick_victim(0x10000), 2u);
}

TEST(Lru, WideMasksSpanMultipleWords) {
  // A fully-associative LR part can exceed 64 ways; the valid bits and
  // stamps must be addressed in every word.
  TagArray tags(CacheGeometry(192 * 256, 192, 256));
  fill_all(tags);
  for (const unsigned w : {0u, 100u, 191u}) tags.invalidate(Addr{w} * 256, w);
  EXPECT_FALSE(tags.valid(0, 0));
  EXPECT_TRUE(tags.valid(0, 63));
  EXPECT_FALSE(tags.valid(0, 100));
  EXPECT_FALSE(tags.valid(0, 191));
  EXPECT_EQ(tags.pick_victim(0x100000), 0u);  // first invalid way wins
  tags.fill(0, 0, 1);
  EXPECT_EQ(tags.pick_victim(0x100000), 100u);
  tags.fill(100 * 256, 100, 1);
  tags.fill(191 * 256, 191, 1);
  // All valid: way 1 holds the oldest stamp.
  EXPECT_EQ(tags.pick_victim(0x100000), 1u);
  for (unsigned w = 1; w < 150; ++w) tags.touch(Addr{w} * 256, w);
  EXPECT_EQ(tags.pick_victim(0x100000), 150u);
}

// The replacement policies the TagArray implements: LRU is the only one.
enum class Replacement { kLru };

// Contract every replacement policy must satisfy, on a 16-set 8-way array.
class PolicyContract : public ::testing::TestWithParam<Replacement> {
 protected:
  static constexpr unsigned kWays = 8;
  static constexpr std::uint64_t kSets = 16;
  TagArray tags_{CacheGeometry(kSets * kWays * 256, kWays, 256)};

  /// The @p i-th distinct line that maps to @p set.
  static Addr addr(std::uint64_t set, unsigned i) { return (Addr{i} * kSets + set) * 256; }
};

TEST_P(PolicyContract, PrefersInvalidWays) {
  // Way 5 of set 3 was never filled; it wins over the LRU way 0.
  for (unsigned w = 0; w < kWays; ++w) {
    if (w != 5) tags_.fill(addr(3, w), w, 0);
  }
  EXPECT_EQ(tags_.pick_victim(addr(3, kWays)), 5u);
}

TEST_P(PolicyContract, VictimInRange) {
  for (unsigned i = 0; i < kWays + 200; ++i) {
    const unsigned v = tags_.pick_victim(addr(0, i));
    ASSERT_LT(v, kWays);
    tags_.fill(addr(0, i), v, i);  // simulate replacement
  }
  EXPECT_EQ(tags_.valid_count(), kWays);
}

TEST_P(PolicyContract, SetsAreIndependent) {
  // Both sets draw stamps from the array's one counter; touching set 0
  // must not change set 1's victim.
  for (unsigned i = 0; i < kWays; ++i) {
    for (const std::uint64_t set : {0u, 1u}) {
      tags_.fill(addr(set, i), tags_.pick_victim(addr(set, i)), 0);
    }
  }
  const unsigned before = tags_.pick_victim(addr(1, kWays));
  for (unsigned i = 0; i < 10; ++i) {
    const Addr a = addr(0, i % kWays);
    tags_.touch(a, *tags_.probe(a));
  }
  EXPECT_EQ(tags_.pick_victim(addr(1, kWays)), before);
  EXPECT_EQ(tags_.pick_victim(addr(0, kWays)), 2u);  // ways 0 and 1 were touched twice
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyContract, ::testing::Values(Replacement::kLru));

}  // namespace
}  // namespace sttgpu::cache
