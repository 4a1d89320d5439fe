// Configuration structures for the L2 bank implementations.
#pragma once

#include <cstdint>

#include "nvm/cell.hpp"

namespace sttgpu::sttl2 {

/// How the two tag arrays of the two-part cache are probed (paper Section 5:
/// "Two possible approaches include parallel and sequential searches").
enum class SearchPolicy : std::uint8_t {
  /// Probe both parts at once: lowest latency, both tag arrays burn energy.
  kParallel,
  /// Probe the likely part first (writes: LR first; reads: HR first); probe
  /// the other only on a miss. Saves tag energy, may add tag latency.
  kSequential,
};

const char* to_string(SearchPolicy p) noexcept;

/// In-simulation STT-RAM fault injection (fault_model.hpp). Off by default:
/// with enabled == false no RNG is constructed, no counter is interned and
/// no code path diverges, so results are byte-identical to a build without
/// the subsystem. All probabilities derive from the same Néel–Arrhenius
/// device model the analytic reliability report uses, which is what makes
/// the injected/predicted cross-validation meaningful.
struct FaultInjectionConfig {
  bool enabled = false;
  std::uint64_t seed = 42;  ///< fault RNG seed (independent of workload seed)

  /// Hazard acceleration factor: multiplies the retention collapse rate so
  /// failure statistics converge in feasible simulation horizons. 1.0 is the
  /// physical rate, which with the default guard band still collapses ~170
  /// lines in a C1/bfs run at scale 0.5 (fault_model.hpp, ROADMAP item 8).
  double accel = 1.0;

  /// SECDED-style line ECC: correct single-bit collapses (with a scrub
  /// write), detect multi-bit ones. Off => every dirty-line collapse is
  /// silent data loss.
  bool ecc = true;

  /// Thermal guard band of the quoted retention time (mean thermal life =
  /// retention * spec_margin) — same convention and default as
  /// analyze_reliability().
  double spec_margin = 20.0;

  /// Per-attempt probability that a line write fails verification (also
  /// scaled by accel when accel > 1; accel < 1 never weakens it, so
  /// accel=0 isolates the write-failure mechanism from retention faults).
  double write_fail_prob = 1e-4;

  /// Write-verify retries before the controller escalates to a boosted
  /// (2x-energy) pulse that always succeeds.
  unsigned write_retry_limit = 3;
};

/// A conventional single-array L2 bank (SRAM baseline or naive STT baseline).
struct UniformBankConfig {
  std::uint64_t capacity_bytes = 64 * 1024;  ///< per bank
  unsigned associativity = 8;
  unsigned line_bytes = 256;
  nvm::CellParams cell = nvm::sram_cell();
  /// Extra response latency of the bank pipeline (queues, ECC, controller).
  unsigned pipeline_cycles = 16;
  unsigned input_queue = 32;
  /// Independently ported subarrays within the data array.
  unsigned subbanks = 2;
  /// Fault injection (inert for SRAM cells and when disabled).
  FaultInjectionConfig faults;
};

/// The paper's proposed two-part bank.
struct TwoPartBankConfig {
  // High-retention part (per bank)
  std::uint64_t hr_bytes = 224 * 1024;  ///< C1: 1344KB / 6 banks
  unsigned hr_assoc = 7;
  double hr_retention_s = 40e-3;
  unsigned hr_counter_bits = 2;  ///< per-line retention counter (Section 5)

  // Low-retention part (per bank)
  std::uint64_t lr_bytes = 32 * 1024;  ///< C1: 192KB / 6 banks
  unsigned lr_assoc = 2;               ///< 0 => fully associative
  double lr_retention_s = 26.5e-6;
  unsigned lr_counter_bits = 4;

  unsigned line_bytes = 256;

  /// Writes to an HR line whose write counter has already reached this value
  /// migrate the line to LR. 1 == the conventional modified bit (the paper's
  /// TH1, shown optimal in Fig. 4).
  unsigned write_threshold = 1;

  /// Capacity of each swap buffer (HR->LR and LR->HR), in cache lines.
  unsigned buffer_lines = 10;

  SearchPolicy search = SearchPolicy::kSequential;

  unsigned pipeline_cycles = 16;
  unsigned input_queue = 32;
  /// Independently ported subarrays within each part's data array.
  unsigned hr_subbanks = 2;
  unsigned lr_subbanks = 2;
  /// Fault injection (one model per part, seeded independently).
  FaultInjectionConfig faults;
};

}  // namespace sttgpu::sttl2
