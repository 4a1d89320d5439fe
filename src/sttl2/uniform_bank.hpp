// Conventional single-array L2 bank.
//
// With SRAM cells this is the paper's *SRAM baseline*; with 10-year STT-RAM
// cells and 4x the capacity it is the *STT-RAM baseline* the paper compares
// against (Table 2 row "baseline STT-RAM"). With volatile STT cells it also
// supports retention expiry (invalidate clean / write back dirty lines whose
// data aged out), so it can model any single-retention design point.
//
// Policy: write-back, write-allocate (fetch-on-write), LRU.
#pragma once

#include "cache/write_stats.hpp"
#include "sttl2/bank_base.hpp"
#include "sttl2/config.hpp"
#include "sttl2/retention.hpp"
#include "sttl2/rewrite_tracker.hpp"

namespace sttgpu::sttl2 {

class UniformBank final : public BankBase {
 public:
  UniformBank(unsigned bank_id, const UniformBankConfig& config, const Clock& clock,
              gpu::DramChannel& dram);

  Watt leakage_w() const override { return part_.costs.leakage_w; }

  /// Base counters plus the array-occupancy gauge.
  void sample_telemetry(Cycle now, Telemetry& out) override;

  const power::ArrayCosts& array_costs() const noexcept { return part_.costs; }
  const RewriteTracker& rewrite_intervals() const noexcept { return rewrites_; }
  const cache::TagArray& tags() const noexcept { return part_.tags; }

  /// Demand-write variation across sets/ways (i2WAP COV, paper Fig. 3).
  const cache::WriteVariationTracker& write_variation() const noexcept { return write_var_; }

  /// Fault-injection stream (auto-inert for SRAM cells or when disabled).
  const FaultModel& faults() const noexcept { return part_.faults; }

 protected:
  void process_request(const gpu::L2Request& request, Cycle now) override;
  void process_fill(Addr line_addr, Cycle now) override;
  void maintenance(Cycle now) override;
  Cycle impl_next_event() const override;

 private:
  void write_line(cache::LineMeta& line, std::uint64_t set, unsigned way, Cycle now);
  void schedule_expiry(std::uint64_t set, unsigned way, Cycle deadline);

  /// One physical data-array write incl. write-verify retries.
  Cycle data_write(Addr line_addr, Cycle now);
  /// Decay evaluation + recovery on a demand hit; true = line invalidated
  /// (the access falls through to the miss path).
  bool fault_read_check(Addr line_addr, unsigned way, Cycle now);

  UniformBankConfig config_;
  Part part_;
  Cycle retention_cycles_ = 0;  // 0 => non-volatile at simulation horizons

  DeadlineIndex expiry_;  ///< retention deadline of each volatile line
  RewriteTracker rewrites_;
  cache::WriteVariationTracker write_var_;

  struct CounterIds {
    CounterId evict_dirty, evict_clean, expired_dirty, expired_clean;
  } c_;
};

}  // namespace sttgpu::sttl2
