#include "cache/tag_array.hpp"

#include "common/error.hpp"

namespace sttgpu::cache {

TagArray::TagArray(const CacheGeometry& geometry)
    : geom_(geometry),
      assoc_(geometry.associativity()),
      words_per_set_((geometry.associativity() + 63u) / 64u),
      tags_(geometry.num_lines(), 0),
      valid_(geometry.num_sets() * words_per_set_, 0),
      stamp_(geometry.num_lines(), 0),
      meta_(geometry.num_lines()) {}

unsigned TagArray::pick_victim(Addr addr) const noexcept {
  const std::uint64_t set = geom_.set_index(addr);
  const std::uint64_t* words = valid_.data() + set * words_per_set_;
  for (unsigned wi = 0; wi < words_per_set_; ++wi) {
    const std::uint64_t clear = ~words[wi];
    if (clear != 0) {
      // Bits past assoc_ are never set, so they read as clear: only a way
      // inside the set counts.
      const unsigned w = wi * 64u + static_cast<unsigned>(std::countr_zero(clear));
      if (w < assoc_) return w;
      break;
    }
  }
  const std::uint64_t* stamps = stamp_.data() + set * assoc_;
  unsigned best = 0;
  for (unsigned w = 1; w < assoc_; ++w) {
    if (stamps[w] < stamps[best]) best = w;
  }
  return best;
}

LineMeta& TagArray::fill(Addr addr, unsigned way, Cycle now) {
  const std::uint64_t set = geom_.set_index(addr);
  STTGPU_ASSERT(way < assoc_);
  tags_[set * assoc_ + way] = geom_.tag_of(addr);
  valid_[set * words_per_set_ + (way >> 6)] |= std::uint64_t{1} << (way & 63u);
  stamp_[set * assoc_ + way] = ++tick_;
  LineMeta& line = meta_[set * assoc_ + way];
  line = LineMeta{};
  line.insert_cycle = now;
  return line;
}

void TagArray::invalidate(Addr addr, unsigned way) {
  const std::uint64_t set = geom_.set_index(addr);
  STTGPU_ASSERT(way < assoc_);
  // The way's stamp stays: an invalid way is always the victim first, and
  // the fill that revalidates it stamps it afresh.
  valid_[set * words_per_set_ + (way >> 6)] &= ~(std::uint64_t{1} << (way & 63u));
}

LineMeta& TagArray::line(std::uint64_t set, unsigned way) {
  STTGPU_ASSERT(set < geom_.num_sets() && way < assoc_);
  return meta_[set * assoc_ + way];
}

const LineMeta& TagArray::line(std::uint64_t set, unsigned way) const {
  STTGPU_ASSERT(set < geom_.num_sets() && way < assoc_);
  return meta_[set * assoc_ + way];
}

std::vector<bool> TagArray::valid_mask(std::uint64_t set) const {
  std::vector<bool> mask(assoc_);
  for (unsigned w = 0; w < assoc_; ++w) mask[w] = valid(set, w);
  return mask;
}

std::uint64_t TagArray::valid_count() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t word : valid_) n += static_cast<unsigned>(std::popcount(word));
  return n;
}

}  // namespace sttgpu::cache
