// Top-level GPU configuration (GTX480-class defaults, matching Table 2's
// "baseline GPU model": 15 SM clusters, 16KB 4-way L1D with 128B lines,
// 8KB constant / 12KB texture caches, 48KB shared memory, 6 memory
// controllers, butterfly interconnect, 40nm, 32K 32-bit registers per SM).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/units.hpp"

namespace sttgpu {
class CancelToken;
class Telemetry;
}

namespace sttgpu::gpu {

/// Warp scheduler policy.
enum class SchedulerKind : unsigned char {
  kGto,  ///< greedy-then-oldest: stick to the last warp, else oldest ready
  kLrr,  ///< loose round-robin: rotate through ready warps
};

struct GpuConfig {
  // --- compute resources ---
  unsigned num_sms = 15;
  unsigned warp_size = 32;
  unsigned max_warps_per_sm = 48;
  unsigned max_blocks_per_sm = 8;
  unsigned max_threads_per_sm = 1536;
  unsigned registers_per_sm = 32768;        ///< 32-bit registers
  unsigned shared_mem_per_sm = 48 * 1024;   ///< bytes
  double core_clock_hz = kDefaultCoreClockHz;
  SchedulerKind scheduler = SchedulerKind::kGto;

  // --- L1 complex (per SM) ---
  unsigned l1d_size = 16 * 1024;
  unsigned l1d_assoc = 4;
  unsigned l1d_line = 128;
  unsigned l1c_size = 8 * 1024;   ///< constant cache, 128B lines
  unsigned l1c_assoc = 2;
  unsigned l1t_size = 12 * 1024;  ///< texture cache, 64B lines
  unsigned l1t_assoc = 4;
  unsigned l1t_line = 64;
  unsigned l1_hit_latency = 24;   ///< cycles, Fermi-class pipelined hit
  unsigned l1_mshr_entries = 32;
  unsigned l1_mshr_merge = 8;

  // --- interconnect (SM <-> L2 banks, butterfly modelled as latency+BW) ---
  unsigned icnt_latency = 8;       ///< cycles one way
  unsigned icnt_service_gap = 1;   ///< cycles between transactions per port

  // --- L2 / memory partition ---
  unsigned num_l2_banks = 6;       ///< one per memory controller
  unsigned l2_line_bytes = 256;
  unsigned l2_input_queue = 32;    ///< per-bank request queue entries

  // --- DRAM (per controller) ---
  unsigned dram_latency = 220;      ///< cycles, closed-page / row-miss access
  unsigned dram_service_gap = 6;    ///< cycles per 256B transfer (~30 GB/s/MC)
  /// Open-page mode: accesses hitting the last-activated row of the channel
  /// complete in dram_row_hit_latency instead of dram_latency.
  bool dram_open_page = false;
  unsigned dram_row_bytes = 2048;
  unsigned dram_row_hit_latency = 140;

  // --- SM-side memory credits (bound in-flight traffic) ---
  unsigned max_outstanding_load_txn = 64;   ///< per SM
  unsigned max_outstanding_store_txn = 64;  ///< per SM

  /// Event-driven stepping. true (default): a hierarchical event wheel
  /// schedules the SMs and L2 bank partitions — each cycle runs only the
  /// components with something due, skipped SMs get their idle/stall
  /// accounting in deferred batches, and quiescent stretches are jumped in
  /// one step to the wheel's next deadline. The wheel has 64 ids, so
  /// num_sms + num_l2_banks must be <= 64 (the Gpu rejects larger configs).
  /// false: the plain per-cycle reference loop over every component. A pure
  /// scheduling choice — all reported metrics are byte-identical either way
  /// (tested); disable to A/B against the reference loop.
  bool fast_forward = true;

  /// Optional interval-telemetry sink (not owned; must outlive the Gpu).
  /// Purely observational: attaching one never changes simulated results,
  /// so it is not part of the result-cache config fingerprint. Use a fresh
  /// Telemetry per run.
  Telemetry* telemetry = nullptr;

  /// Optional cooperative-cancellation token (not owned; must outlive the
  /// run). Checked at supervision points — every few thousand cycles in the
  /// run loops, so fast-forwarded gaps observe it too. When requested, the
  /// run unwinds with Cancelled (a watchdog/timeout reason additionally
  /// carries a diagnostic state dump). Never changes simulated results.
  const CancelToken* cancel = nullptr;

  /// Optional cycle-count heartbeat (not owned): the Gpu publishes now_ at
  /// every supervision point so a watchdog can tell a long simulation from
  /// a livelocked one. Never changes simulated results.
  std::atomic<std::uint64_t>* heartbeat = nullptr;

  Clock clock() const noexcept { return Clock{core_clock_hz}; }
};

}  // namespace sttgpu::gpu
