// Write-variation statistics after i2WAP (Wang et al., HPCA'13), which the
// paper uses for its Figure 3 characterization:
//
//   * inter-set variation: coefficient of variation of total write counts
//     across cache sets;
//   * intra-set variation: the average over sets of the COV of write counts
//     across the ways within the set.
//
// Way-level attribution uses the physical way a write landed in, which is
// how i2WAP's lifetime argument is framed (cells wear, not logical blocks).
#pragma once

#include <cstdint>
#include <vector>

namespace sttgpu::cache {

class WriteVariationTracker {
 public:
  WriteVariationTracker(std::uint64_t sets, unsigned ways);

  void record_write(std::uint64_t set, unsigned way) noexcept;

  std::uint64_t total_writes() const noexcept { return total_; }
  std::uint64_t set_writes(std::uint64_t set) const;
  std::uint64_t way_writes(std::uint64_t set, unsigned way) const;

  /// COV of per-set write totals across all sets.
  double inter_set_cov() const;

  /// Mean over sets (with at least one write) of the per-set COV across ways.
  double intra_set_cov() const;

  std::uint64_t sets() const noexcept { return sets_; }
  unsigned ways() const noexcept { return ways_; }

 private:
  std::uint64_t sets_;
  unsigned ways_;
  std::vector<std::uint64_t> counts_;  // sets x ways
  std::uint64_t total_ = 0;
};

}  // namespace sttgpu::cache
