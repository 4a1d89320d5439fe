// Memory request/response types flowing between SMs, the interconnect,
// L2 banks and DRAM channels.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "workload/kernel.hpp"

namespace sttgpu::gpu {

/// One 128-byte memory transaction headed to (or answered by) an L2 bank.
/// `space` and `is_writeback` are the SM's own bookkeeping: the banks never
/// read them, only echo them into the response, so the SM needs no lookup
/// per response. They sit in the padding after `is_store`.
struct L2Request {
  std::uint64_t id = 0;   ///< GPU-global request id (routes the response)
  Addr addr = 0;          ///< transaction address (128B aligned)
  bool is_store = false;
  workload::MemSpace space = workload::MemSpace::kGlobal;  ///< L1 the fill installs in
  bool is_writeback = false;  ///< L1 dirty eviction (holds no store credit)
  unsigned sm_id = 0;
  Cycle created = 0;
};

struct L2Response {
  std::uint64_t id = 0;
  Addr addr = 0;
  bool is_store = false;
  workload::MemSpace space = workload::MemSpace::kGlobal;  ///< echoed from the request
  bool is_writeback = false;                               ///< echoed from the request
  unsigned sm_id = 0;
  Cycle ready = 0;        ///< cycle the bank finished the access
};

static_assert(sizeof(L2Request) == 32 && sizeof(L2Response) == 32,
              "the echoed fields must stay in padding");

/// Aggregate statistics every L2 bank implementation reports.
struct L2BankStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writebacks = 0;

  std::uint64_t accesses() const noexcept {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t writes() const noexcept { return write_hits + write_misses; }
  double miss_rate() const noexcept {
    const auto a = accesses();
    return a ? static_cast<double>(read_misses + write_misses) / static_cast<double>(a) : 0.0;
  }
  double write_share() const noexcept {
    const auto a = accesses();
    return a ? static_cast<double>(writes()) / static_cast<double>(a) : 0.0;
  }

  void merge(const L2BankStats& o) noexcept {
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    write_hits += o.write_hits;
    write_misses += o.write_misses;
    dram_reads += o.dram_reads;
    dram_writebacks += o.dram_writebacks;
  }
};

}  // namespace sttgpu::gpu
