// The traced run's per-layer view, and the replica of one simulation that
// produces it through public calls: make_benchmark, a Gpu over the real
// sttl2 factories (optionally behind TimedFactory), Gpu::run.
//
// Every traced run emits the same metric set in the same order (Layers::emit)
// so a workload that does not exercise a layer reports zeros for it rather
// than omitting it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "harness.hpp"
#include "sim/arch.hpp"
#include "sim/runner.hpp"
#include "timed_bank.hpp"
#include "workload/kernel.hpp"

namespace e2e {

struct Layers {
  // sttl2 (TimedFactory spans), per bank implementation
  BankSpans twopart, uniform;
  double span_cost_ns = 0.0;

  // gpu: Gpu::run wall time of the traced pass, and Gpu construction
  double gpu_run_s = 0.0;
  double gpu_construct_s = 0.0;
  /// Simulated cycles per host second of the untraced pass.
  double sim_mcycles_per_s = 0.0;

  // workload
  double build_s = 0.0;

  // store / CSV (milliseconds; per-call means where a workload repeats them)
  std::vector<double> put_ms;
  double open_ms = 0.0, get_ms = 0.0, refresh_ms = 0.0, rows_for_ms = 0.0;
  double csv_read_ms = 0.0, csv_export_ms = 0.0, fingerprint_ms = 0.0;
  /// What a warm run_matrix call spends outside its store and CSV calls
  /// (argument checks, slot layout, supervisor): real call minus replica.
  double matrix_self_ms = 0.0;

  // serve (client-observed, milliseconds, medians over submissions)
  double serve_start_ms = 0.0, admit_ms = 0.0, queue_ms = 0.0, task_ms = 0.0;
  double sim_ms = 0.0, task_overhead_ms = 0.0, finish_ms = 0.0;
  double hit_admit_ms = 0.0, hit_p50_ms = 0.0, hit_tail_ms = 0.0;

  // model (deterministic simulated statistics, summed over the pass)
  std::uint64_t cycles = 0, warp_insts = 0, l2_accesses = 0, l2_misses = 0, dram_reads = 0;
  double paper_err = 0.0;

  /// traced / untraced wall time of the same work, minus one.
  double trace_overhead = 0.0;

  /// Folds one finished simulation's statistics into the model counters.
  void add_model(const sttgpu::gpu::RunResult& r);

  void emit(Report& report) const;
};

/// The bank factory run_one would build for @p spec.
std::unique_ptr<sttgpu::gpu::L2BankFactory> bank_factory(const sttgpu::sim::ArchSpec& spec);

/// One simulation on a fresh Gpu. With @p layers, the banks run behind
/// TimedFactory and the construction/run times land in @p layers.
sttgpu::gpu::RunResult simulate(const sttgpu::sim::ArchSpec& spec,
                                const sttgpu::workload::Workload& w, Layers* layers);

/// The Metrics row run_one derives from a RunResult.
sttgpu::sim::Metrics metrics_of(const sttgpu::sim::ArchSpec& spec,
                                const sttgpu::workload::Workload& w,
                                const sttgpu::gpu::RunResult& r);

/// Tracing must be purely observational: cycles, instructions, L2 counters
/// and total dynamic energy all equal.
bool same_result(const sttgpu::gpu::RunResult& a, const sttgpu::gpu::RunResult& b);

/// Mean |measured / paper - 1| over the nine Fig. 8 averages the paper
/// gives, with measured values the Gmeans fig8a/b/c compute from @p rows.
double paper_error(const std::vector<sttgpu::sim::Metrics>& rows);

}  // namespace e2e
