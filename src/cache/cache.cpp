#include "cache/cache.hpp"

namespace sttgpu::cache {

AccessOutcome SetAssocCache::access(Addr addr, AccessKind kind, Cycle now) {
  const bool store = kind == AccessKind::kStore;
  AccessOutcome out;
  if (const auto way = tags_.probe(addr)) {
    ++(store ? counters_.store_hits : counters_.load_hits);
    tags_.touch(addr, *way);
    if (store) tags_.line(geometry().set_index(addr), *way).dirty = true;
    out.hit = true;
    return out;
  }
  ++(store ? counters_.store_misses : counters_.load_misses);
  const unsigned victim = tags_.pick_victim(addr);
  const std::uint64_t set = geometry().set_index(addr);
  if (tags_.valid(set, victim)) {
    ++counters_.evictions;
    if (tags_.line(set, victim).dirty) {
      ++counters_.writebacks;
      out.writeback = true;
      out.writeback_addr = tags_.addr_of(set, victim);
    }
  }
  tags_.fill(addr, victim, now).dirty = store;
  return out;
}

bool SetAssocCache::invalidate_line(Addr addr) {
  const auto way = tags_.probe(addr);
  if (!way) return false;
  const bool dirty = tags_.line(geometry().set_index(addr), *way).dirty;
  tags_.invalidate(addr, *way);
  return dirty;
}

}  // namespace sttgpu::cache
