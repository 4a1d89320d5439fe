// Top-level GPU: SM cluster + interconnect + pluggable L2 banks + DRAM
// channels, executing a Workload's kernels sequentially and reporting the
// performance/energy metrics the paper's evaluation uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpu/dram.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/interconnect.hpp"
#include "gpu/l2_bank.hpp"
#include "gpu/sm.hpp"
#include "sim/wake_table.hpp"
#include "workload/benchmarks.hpp"

namespace sttgpu::gpu {

/// Transport diagnostics of a run. Purely observational: the express/queued
/// splits are contention properties of the simulated machine, identical in
/// both stepping loops.
struct SchedulerDiag {
  std::uint64_t icnt_request_express = 0;  ///< admits with zero port backlog
  std::uint64_t icnt_request_queued = 0;   ///< admits behind earlier traffic
  std::uint64_t icnt_response_express = 0;
  std::uint64_t icnt_response_queued = 0;
  std::uint64_t dram_express_reads = 0;
  std::uint64_t dram_queued_reads = 0;
};

/// Everything a run produces.
struct RunResult {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  double runtime_s = 0.0;

  L2BankStats l2;              ///< merged across banks
  Watt l2_leakage_w = 0.0;     ///< summed across banks
  CounterSet l2_counters;      ///< implementation-specific bank counters
  power::EnergyLedger l2_energy;  ///< merged dynamic-energy ledger

  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;

  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;

  SmStats sm;                  ///< merged across SMs
  SchedulerDiag sched;         ///< transport/scheduler observability
};

/// Factory that builds one L2 bank. @p dram is the bank's private channel;
/// implementations must deliver their DRAM read completions through it and
/// accept them via L2Bank-internal callbacks (see sttl2::BankDramPort).
class L2BankFactory {
 public:
  virtual ~L2BankFactory() = default;
  virtual std::unique_ptr<L2Bank> make_bank(unsigned bank_id, DramChannel& dram) = 0;
  /// Extra counters the implementation wants surfaced in RunResult.
  virtual void collect(const L2Bank& bank, CounterSet& out) const {
    (void)bank;
    (void)out;
  }
};

class Gpu {
 public:
  Gpu(const GpuConfig& config, L2BankFactory& l2_factory);

  /// Runs all kernels of @p workload to completion; cumulative across calls
  /// is not supported — construct a fresh Gpu per run.
  RunResult run(const workload::Workload& workload);

  /// Direct access for tests / benches needing implementation details.
  L2Bank& bank(unsigned i) { return *banks_[i]; }
  unsigned num_banks() const noexcept { return static_cast<unsigned>(banks_.size()); }
  const GpuConfig& config() const noexcept { return config_; }

 private:
  void run_kernel(const workload::KernelSpec& kernel, std::uint64_t seed);
  void drain_memory();
  bool memory_idle() const;
  /// Advances one cycle. With fast_forward (the default) the wake table
  /// pops the exact due set (banks then SMs, ascending id — the reference
  /// loop's order), so a cycle touches only components with something due;
  /// every skipped call is provably a no-op by the conservative next-event
  /// contract each component honours. Every schedule-advancing mutation
  /// re-posts to the table; skipped SMs get their idle/stall accounting in
  /// deferred batches (exact: between activations nothing mutates an SM, so
  /// the per-cycle classification is constant over the gap), flushed at
  /// every observation point. Without fast_forward it runs step_reference().
  void step();

  /// Plain per-cycle loop over every component — the reference the
  /// event-driven loop must match byte for byte (fast_forward=false).
  void step_reference();

  /// Catches up deferred SM idle/stall accounting to @p at (exclusive); a
  /// no-op under the reference loop, which accounts every cycle. Called
  /// before anything observes SM stats or mutates SM state: telemetry
  /// samples, kernel starts, L1 flushes, result assembly.
  void flush_sm_accounting(Cycle at);

  /// Event-driven fast-forward: when nothing is due this cycle, jump now_
  /// straight to the table's earliest deadline (skipped cycles would have
  /// been pure no-ops except SM idle accounting, which is deferred). No-op
  /// under the reference loop. Telemetry boundaries inside the skipped
  /// stretch are sampled at exactly the cycle the reference loop would have
  /// sampled, so the series is identical in both modes.
  void fast_forward();

  /// Opens a telemetry frame at @p at and polls every component.
  void telemetry_sample(Cycle at);

  /// Supervision point: publishes the cycle-count heartbeat and unwinds
  /// with Cancelled if config_.cancel was requested (appending a diagnostic
  /// state dump for watchdog/timeout kills). Reached every
  /// kSupervisionInterval cycles in the run loops; a no-op single compare
  /// when neither cancel nor heartbeat is configured.
  void supervision_point();

  /// Human-readable in-flight state (cycle, per-bank queue depths and
  /// swap-buffer fill, interconnect/DRAM idleness) for watchdog dumps.
  std::string state_dump() const;

  /// Cycles between supervision points: frequent enough that cancellation
  /// latency is microseconds of wall clock, far too coarse to profile.
  static constexpr Cycle kSupervisionInterval = 16384;

  unsigned bank_of(Addr addr) const noexcept;

  GpuConfig config_;
  L2BankFactory* factory_;
  Interconnect icnt_;
  std::vector<std::unique_ptr<DramChannel>> dram_;
  std::vector<std::unique_ptr<L2Bank>> banks_;
  std::vector<std::unique_ptr<Sm>> sms_;

  Cycle now_ = 0;

  // Interval telemetry (null/kNoCycle when disabled, so the per-cycle cost
  // of the disabled path is a single integer compare in step()).
  Telemetry* tel_ = nullptr;
  Cycle tel_interval_ = 0;
  Cycle tel_next_ = kNoCycle;  ///< next interval boundary to sample

  // Supervision (kNoCycle when neither cancel nor heartbeat is configured,
  // so the unsupervised run loop pays a single integer compare).
  Cycle sup_next_ = kNoCycle;  ///< next supervision point

  std::uint64_t next_request_id_ = 1;
  std::vector<L2Response> response_scratch_;
  std::vector<L2Response> sm_resp_scratch_;  ///< per-SM same-cycle batch
  std::vector<SendTxnFn> senders_;  ///< one bound sender per SM

  // Event-driven state, present iff fast_forward. Component ids: bank b -> b,
  // SM s -> sm_id_base_ + s (the constructor rejects configs whose ids
  // overflow the table's 64). A component's deadline covers its partition:
  // bank b's interconnect request queue, DRAM channel and the bank itself;
  // SM s plus its interconnect response queue. The table holds one
  // deadline per id (see sim/wake_table.hpp); due_now_mask_ arms
  // components for the *current* cycle out of band (kernel starts,
  // zero-latency sends landing behind this cycle's pop). sm_acct_[s] is the
  // first cycle not yet covered by SM s's idle/stall accounting; see
  // flush_sm_accounting().
  std::optional<sim::WakeTable> wake_;
  std::uint64_t due_now_mask_ = 0;
  std::uint64_t bank_mask_ = 0;
  std::uint64_t sm_mask_ = 0;
  unsigned sm_id_base_ = 0;
  std::vector<Cycle> sm_acct_;
};

}  // namespace sttgpu::gpu
