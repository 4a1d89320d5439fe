// Per-SM first-level cache complex: L1 data cache plus the read-only
// constant and texture caches, with the GPU write policies of the paper's
// Figure 1b:
//
//   * global-data store, L1 hit  -> write-evict (invalidate, forward to L2);
//   * global-data store, L1 miss -> write-no-allocate (forward to L2);
//   * local-data accesses        -> write-back, write-allocate;
//   * constant/texture           -> read-only allocate-on-miss.
//
// L1s are not coherent (paper Section 2); nothing here needs invalidation
// traffic. The class is purely functional — the SM attaches timing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/small_vec.hpp"

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "gpu/gpu_config.hpp"
#include "workload/kernel.hpp"

namespace sttgpu::gpu {

/// What one L1 transaction requires from the rest of the hierarchy.
struct L1Outcome {
  bool hit = false;        ///< satisfied locally (loads only)
  bool send_read = false;  ///< fetch this line from L2
  bool send_write = false; ///< forward a store to L2
  /// Dirty local lines displaced by this operation (write them to L2).
  /// At most one per access (a miss fill evicts one victim), so the inline
  /// capacity keeps the per-transaction path allocation-free.
  SmallVec<Addr, 2> writebacks;
};

class L1Complex {
 public:
  explicit L1Complex(const GpuConfig& config);

  /// One 128B (64B for texture) transaction against the right cache.
  L1Outcome access(Addr addr, workload::WarpInstr::Kind kind, workload::MemSpace space,
                   Cycle now);

  /// Installs a returned miss line; appends dirty evictions to @p writebacks.
  void fill(Addr addr, workload::MemSpace space, Cycle now, SmallVec<Addr, 2>& writebacks);

  /// End-of-kernel flush: invalidates everything, returning dirty local
  /// lines that must be written back to L2.
  std::vector<Addr> flush();

  const cache::CacheCounters& data_counters() const noexcept { return l1d_.counters(); }

 private:
  cache::SetAssocCache& cache_for(workload::MemSpace space);

  cache::SetAssocCache l1d_;
  cache::SetAssocCache l1c_;
  cache::SetAssocCache l1t_;
};

}  // namespace sttgpu::gpu
