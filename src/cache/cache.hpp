// A functional write-back, write-allocate set-associative cache: the
// local-data path of the L1 in the paper's Figure 1b. Loads and stores
// both allocate on a miss, and stores mark the line dirty. L1Complex routes
// global-data stores (write-evict, write-no-allocate) around it.
//
// This class models hit/miss/eviction *behaviour* (no timing): the SM
// attaches latencies and queues around it.
#pragma once

#include <cstdint>

#include "cache/geometry.hpp"
#include "cache/tag_array.hpp"
#include "common/types.hpp"

namespace sttgpu::cache {

enum class AccessKind : std::uint8_t { kLoad, kStore };

/// Result of one access against the functional cache.
struct AccessOutcome {
  bool hit = false;
  /// A dirty victim must be written back downstream.
  bool writeback = false;
  Addr writeback_addr = 0;
};

struct CacheCounters {
  std::uint64_t load_hits = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;

  std::uint64_t accesses() const noexcept {
    return load_hits + load_misses + store_hits + store_misses;
  }
  double miss_rate() const noexcept {
    const auto a = accesses();
    return a ? static_cast<double>(load_misses + store_misses) / static_cast<double>(a) : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geometry) : tags_(geometry) {}

  /// Performs one access at time @p now; a miss allocates the line (dirty
  /// for a store) and reports the victim's writeback, if any.
  AccessOutcome access(Addr addr, AccessKind kind, Cycle now);

  /// Invalidates @p addr's line if resident; returns true if it was dirty
  /// (the caller owns the resulting writeback).
  bool invalidate_line(Addr addr);

  bool contains(Addr addr) const noexcept { return tags_.probe(addr).has_value(); }

  const CacheGeometry& geometry() const noexcept { return tags_.geometry(); }
  const CacheCounters& counters() const noexcept { return counters_; }
  TagArray& tags() noexcept { return tags_; }
  const TagArray& tags() const noexcept { return tags_; }

 private:
  TagArray tags_;
  CacheCounters counters_;
};

}  // namespace sttgpu::cache
