// Probe helpers: run a workload and harvest bank-implementation internals
// (rewrite histograms, write-variation COV, LR utilization) aggregated over
// all banks. These feed the characterization figures (3, 4, 5, 6) and the
// ablation benches.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/runner.hpp"
#include "sttl2/config.hpp"

namespace sttgpu::sim {

/// Results of running one workload on a two-part L2 (C1 geometry unless a
/// custom config is given).
struct TwoPartProbe {
  Metrics metrics;
  CounterSet counters;  ///< merged implementation counters (w_lr, migrations, ...)

  /// Fig. 6 bucket fractions: <=10us, <=50us, <=100us, <=1ms, <=2.5ms, >2.5ms.
  std::vector<double> lr_interval_fractions;
  std::uint64_t lr_intervals = 0;
  /// The same distribution as a histogram (for reliability analysis).
  Histogram lr_interval_hist{{1.0}};

  /// Fraction of HR rewrite intervals within 40ms (Section 4 claim).
  double hr_within_40ms = 0.0;
  std::uint64_t hr_intervals = 0;

  /// Fraction of demand stores whose data ended in the LR part.
  double lr_write_utilization = 0.0;
};

/// Runs @p benchmark on a GPU with @p bank_cfg two-part banks. @p gpu_cfg
/// defaults to the baseline GPU model. Probes build their own Gpu (they do
/// not go through RunOptions); to sample interval telemetry from a probe
/// run, point gpu_cfg->telemetry at a fresh sink before calling.
TwoPartProbe run_two_part(const std::string& benchmark, const sttl2::TwoPartBankConfig& bank_cfg,
                          double scale, const gpu::GpuConfig* gpu_cfg = nullptr);

/// Convenience: the C1 per-bank config (224KB HR + 32KB LR).
sttl2::TwoPartBankConfig c1_bank_config();

/// Results of running one workload on a uniform bank (SRAM baseline by
/// default) and reading its write-variation statistics.
struct UniformProbe {
  Metrics metrics;
  CounterSet counters;
  double inter_set_cov = 0.0;  ///< mean across banks
  double intra_set_cov = 0.0;
};

UniformProbe run_uniform(const std::string& benchmark, const sttl2::UniformBankConfig& bank_cfg,
                         double scale);

/// The SRAM baseline per-bank config (64KB 8-way).
sttl2::UniformBankConfig sram_bank_config();

}  // namespace sttgpu::sim
