#include "cache/write_stats.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"

namespace sttgpu::cache {

WriteVariationTracker::WriteVariationTracker(std::uint64_t sets, unsigned ways)
    : sets_(sets), ways_(ways), counts_(sets * ways, 0) {
  STTGPU_REQUIRE(sets > 0 && ways > 0, "WriteVariationTracker: empty geometry");
}

void WriteVariationTracker::record_write(std::uint64_t set, unsigned way) noexcept {
  counts_[set * ways_ + way] += 1;
  ++total_;
}

std::uint64_t WriteVariationTracker::set_writes(std::uint64_t set) const {
  STTGPU_ASSERT(set < sets_);
  std::uint64_t sum = 0;
  for (unsigned w = 0; w < ways_; ++w) sum += counts_[set * ways_ + w];
  return sum;
}

std::uint64_t WriteVariationTracker::way_writes(std::uint64_t set, unsigned way) const {
  STTGPU_ASSERT(set < sets_ && way < ways_);
  return counts_[set * ways_ + way];
}

double WriteVariationTracker::inter_set_cov() const {
  std::vector<std::uint64_t> per_set(sets_);
  for (std::uint64_t s = 0; s < sets_; ++s) per_set[s] = set_writes(s);
  return coefficient_of_variation(per_set);
}

double WriteVariationTracker::intra_set_cov() const {
  StreamStats covs;
  std::vector<std::uint64_t> per_way(ways_);
  for (std::uint64_t s = 0; s < sets_; ++s) {
    bool any = false;
    for (unsigned w = 0; w < ways_; ++w) {
      per_way[w] = counts_[s * ways_ + w];
      any = any || per_way[w] != 0;
    }
    if (!any) continue;  // untouched sets carry no intra-set signal
    covs.add(coefficient_of_variation(per_way));
  }
  return covs.count() ? covs.mean() : 0.0;
}

}  // namespace sttgpu::cache
