// Tag array: storage, lookup and LRU replacement for a set-associative
// structure, decoupled from any particular timing or write policy so both
// the L1s and the uniform and two-part L2 banks can build on it.
//
// Storage is struct-of-arrays: the fields every probe and victim selection
// reads — tags, packed per-set valid bitmaps and last-use stamps — live in
// dense hot lanes, while the per-line bookkeeping touched only on decided
// hits and evictions (dirty bit, write counts, retention/fault deadlines)
// sits in a parallel cold LineMeta array. A probe walks one 64-bit valid
// word and a few adjacent tags instead of dragging full metadata structs
// through the cache.
//
// Replacement is true LRU, as in every cache of GPGPU-Sim's reference
// configuration: each fill and touch stamps the way from one counter per
// array, and the victim is the first invalid way, else the oldest stamp
// (the lowest way on ties).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/geometry.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"

namespace sttgpu::cache {

/// Per-line cold metadata. The line's identity (tag + valid bit) lives in
/// the TagArray hot lanes; everything here is read only after a probe or
/// victim selection has already decided which line is being operated on.
/// The simulator tracks metadata only; data payloads are not simulated
/// (the paper's questions are about timing/energy, not values).
struct LineMeta {
  bool dirty = false;
  std::uint32_t write_count = 0;   ///< writes since insertion (WWS monitor input)
  Cycle insert_cycle = 0;
  Cycle last_write_cycle = kNoCycle;   ///< kNoCycle until first write
  Cycle retention_deadline = kNoCycle; ///< cycle at which data expires (STT parts)
  Cycle fault_check_cycle = kNoCycle;  ///< last fault evaluation (fault injection only)
};

class TagArray {
 public:
  explicit TagArray(const CacheGeometry& geometry);

  const CacheGeometry& geometry() const noexcept { return geom_; }

  /// Finds the way holding @p addr's line, if resident. Does not touch
  /// LRU state (use touch() on a decided hit). The tag lane is
  /// compared word-parallel (SIMD where available, scalar otherwise — same
  /// result either way) and masked with the packed valid bits, so a probe
  /// is straight-line compares instead of a branchy per-way walk.
  std::optional<unsigned> probe(Addr addr) const noexcept {
    const std::uint64_t set = geom_.set_index(addr);
    const Addr tag = geom_.tag_of(addr);
    const Addr* tags = tags_.data() + set * assoc_;
    const std::uint64_t* words = valid_.data() + set * words_per_set_;
    for (unsigned wi = 0; wi < words_per_set_; ++wi) {
      const unsigned lanes = assoc_ - wi * 64u < 64u ? assoc_ - wi * 64u : 64u;
      const std::uint64_t m =
          simd::match_u64(tags + wi * 64u, lanes, tag) & words[wi];
      if (m != 0) return wi * 64u + static_cast<unsigned>(std::countr_zero(m));
    }
    return std::nullopt;
  }

  /// Marks (set-of-addr, way) most-recently-used.
  void touch(Addr addr, unsigned way) noexcept {
    stamp_[geom_.set_index(addr) * assoc_ + way] = ++tick_;
  }

  /// Picks the victim way for @p addr's set: the first invalid way, else
  /// the least-recently-used one.
  unsigned pick_victim(Addr addr) const noexcept;

  /// Installs @p addr's line into (its set, @p way), overwriting whatever is
  /// there. Caller is responsible for having handled the previous occupant.
  LineMeta& fill(Addr addr, unsigned way, Cycle now);

  /// Invalidates (set-of-addr, way).
  void invalidate(Addr addr, unsigned way);

  LineMeta& line(std::uint64_t set, unsigned way);
  const LineMeta& line(std::uint64_t set, unsigned way) const;

  /// Hot-lane accessors for a line's identity.
  Addr tag(std::uint64_t set, unsigned way) const noexcept {
    return tags_[set * assoc_ + way];
  }
  bool valid(std::uint64_t set, unsigned way) const noexcept {
    return ((valid_[set * words_per_set_ + (way >> 6)] >> (way & 63u)) & 1u) != 0;
  }
  /// Representative byte address of the line resident at (set, way).
  Addr addr_of(std::uint64_t set, unsigned way) const noexcept {
    return geom_.addr_of_tag(tag(set, way));
  }

  /// Valid-bit vector for @p set (tests/diagnostics).
  std::vector<bool> valid_mask(std::uint64_t set) const;

  /// Number of valid lines across the whole array.
  std::uint64_t valid_count() const noexcept;

  /// Applies fn(set, way, LineMeta&) to every valid line (refresh/expiry
  /// scans). Statically dispatched; fn needing the line's identity reads it
  /// via tag()/addr_of(). fn must not invalidate lines it has not been
  /// handed yet (the packed words are snapshotted one at a time).
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (std::uint64_t set = 0; set < geom_.num_sets(); ++set) {
      for (unsigned wi = 0; wi < words_per_set_; ++wi) {
        std::uint64_t m = valid_[set * words_per_set_ + wi];
        while (m != 0) {
          const unsigned w = wi * 64u + static_cast<unsigned>(std::countr_zero(m));
          fn(set, w, meta_[set * assoc_ + w]);
          m &= m - 1;
        }
      }
    }
  }

 private:
  CacheGeometry geom_;
  unsigned assoc_;
  unsigned words_per_set_;
  std::vector<Addr> tags_;            // hot: sets x ways
  std::vector<std::uint64_t> valid_;  // hot: sets x words_per_set_ packed bits
  std::vector<std::uint64_t> stamp_;  // hot: sets x ways last-use stamps
  std::vector<LineMeta> meta_;        // cold: sets x ways
  std::uint64_t tick_ = 0;            // last stamp handed out
};

}  // namespace sttgpu::cache
