// Machine-readable result export: metrics and bank counters as JSON, for
// plotting / regression tooling outside the repo.
#pragma once

#include <ostream>
#include <vector>

#include "sim/runner.hpp"

namespace sttgpu::sim {

/// The human-readable metrics block `sttgpu run` prints:
///   <arch> / <benchmark> (scale <scale>)
///     IPC / cycles / L2 power / writes / miss rate
/// Shared with `sttgpu result` so a row fetched from the sweep service
/// prints byte-identically to a direct run.
void print_metrics_block(std::ostream& os, const Metrics& metrics, double scale);

/// A matrix of runs: {"runs": [ {...}, ... ]}.
void write_matrix_json(std::ostream& os, const std::vector<Metrics>& rows);

/// Aggregated fault-injection outcome of one run (summed over every bank
/// and array part), with the analytic cross-check: `predicted` re-scores
/// the exact lifetimes the injector evaluated with analyze_reliability, so
/// injected/predicted converging is the end-to-end validation of the
/// subsystem (tests/test_sttl2_faults.cpp automates it).
struct FaultSummary {
  bool enabled = false;
  std::uint64_t trials = 0;     ///< evaluated data lifetimes
  std::uint64_t collapses = 0;  ///< injected retention collapses
  double expected = 0.0;        ///< exact analytic expectation (sum of p_i)
  double predicted = 0.0;       ///< analyze_reliability over the same lifetimes
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_detected = 0;
  std::uint64_t clean_refetch = 0;
  std::uint64_t data_loss = 0;
  std::uint64_t wv_retries = 0;
  std::uint64_t wv_escalations = 0;
};

/// Walks the live GPU's banks (TwoPartBank / UniformBank) and sums their
/// fault streams. enabled stays false when no bank injects faults.
FaultSummary collect_fault_summary(gpu::Gpu& g);

/// A full run with the implementation counters and per-category energy:
/// {"arch": ..., "benchmark": ..., "metrics": {...}, "counters": {...},
///  "energy_pj": {...}}. When @p faults is non-null and enabled, a
/// "faults" object with the injected/predicted cross-check is appended;
/// when @p telemetry is non-null its interval time series is appended as a
/// "telemetry" object (output is byte-identical to before when both are
/// absent).
void write_run_json(std::ostream& os, const Metrics& metrics, const gpu::RunResult& run,
                    const FaultSummary* faults = nullptr,
                    const Telemetry* telemetry = nullptr);

}  // namespace sttgpu::sim
