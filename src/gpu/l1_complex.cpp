#include "gpu/l1_complex.hpp"

#include "common/error.hpp"

namespace sttgpu::gpu {

namespace {

cache::CacheGeometry l1d_geom(const GpuConfig& c) {
  return {c.l1d_size, c.l1d_assoc, c.l1d_line};
}
cache::CacheGeometry l1c_geom(const GpuConfig& c) {
  return {c.l1c_size, c.l1c_assoc, c.l1d_line};
}
cache::CacheGeometry l1t_geom(const GpuConfig& c) {
  return {c.l1t_size, c.l1t_assoc, c.l1t_line};
}

}  // namespace

L1Complex::L1Complex(const GpuConfig& config)
    : l1d_(l1d_geom(config)), l1c_(l1c_geom(config)), l1t_(l1t_geom(config)) {}

cache::SetAssocCache& L1Complex::cache_for(workload::MemSpace space) {
  switch (space) {
    case workload::MemSpace::kConstant: return l1c_;
    case workload::MemSpace::kTexture: return l1t_;
    default: return l1d_;
  }
}

L1Outcome L1Complex::access(Addr addr, workload::WarpInstr::Kind kind,
                            workload::MemSpace space, Cycle now) {
  using Kind = workload::WarpInstr::Kind;
  L1Outcome out;
  cache::SetAssocCache& c = cache_for(space);

  if (kind == Kind::kLoad) {
    // Loads allocate on miss once the fill returns; the access here only
    // decides hit/miss (the fill happens via fill() on response).
    if (c.contains(addr)) {
      const auto r = c.access(addr, cache::AccessKind::kLoad, now);
      STTGPU_ASSERT(r.hit);
      out.hit = true;
      return out;
    }
    // The miss is counted by fill(), which allocates the line on return.
    out.send_read = true;
    return out;
  }

  // Stores.
  STTGPU_ASSERT(kind == Kind::kStore);
  if (space == workload::MemSpace::kGlobal) {
    // Fig. 1b: write-evict on hit, write-no-allocate on miss; both forward.
    (void)c.invalidate_line(addr);  // global lines are never dirty in L1
    out.send_write = true;
    return out;
  }

  // Local data: write-back, write-allocate (no fetch-on-write: the model
  // treats a local store miss as allocating the line directly).
  const auto r = c.access(addr, cache::AccessKind::kStore, now);
  out.hit = r.hit;
  if (r.writeback) out.writebacks.push_back(r.writeback_addr);
  return out;
}

void L1Complex::fill(Addr addr, workload::MemSpace space, Cycle now,
                     SmallVec<Addr, 2>& writebacks) {
  cache::SetAssocCache& c = cache_for(space);
  // Record the load miss in the counters via a regular access, then the
  // resulting fill happens inside access() itself (allocate-on-miss).
  const auto r = c.access(addr, cache::AccessKind::kLoad, now);
  if (r.writeback) writebacks.push_back(r.writeback_addr);
}

std::vector<Addr> L1Complex::flush() {
  std::vector<Addr> dirty;
  for (cache::SetAssocCache* c : {&l1d_, &l1c_, &l1t_}) {
    cache::TagArray& tags = c->tags();
    std::vector<std::pair<std::uint64_t, unsigned>> valid;
    tags.for_each_valid([&](std::uint64_t set, unsigned way, cache::LineMeta& line) {
      if (line.dirty) dirty.push_back(tags.addr_of(set, way));
      valid.emplace_back(set, way);
    });
    for (const auto& [set, way] : valid) {
      if (tags.valid(set, way)) tags.invalidate(tags.addr_of(set, way), way);
    }
  }
  return dirty;
}

}  // namespace sttgpu::gpu
