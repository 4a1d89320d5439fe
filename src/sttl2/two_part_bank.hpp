// The paper's proposed two-part STT-RAM L2 bank (Section 5, Figure 7).
//
// Two parallel arrays with independent ports:
//   * LR — small, low-retention (default 26.5us), 2-way: fast/cheap writes,
//     holds the running application's write working set. Needs refresh,
//     tracked by 4-bit per-line retention counters; the refresh is postponed
//     to the last counter period and staged through the LR->HR buffer.
//   * HR — large, high-retention (default 40ms), 7-way: read-mostly data.
//     Expired lines are invalidated (clean) or written back (dirty) — no
//     refresh in HR.
//
// WWS monitor: a per-line saturating write counter in HR; a write arriving
// at a line whose counter has already reached the threshold migrates the
// line to LR (threshold 1 == the conventional modified bit, the paper's
// free monitor). Fills always install into HR; LR is populated exclusively
// by migration, so one-shot streaming writes never pollute it.
//
// Swap buffers: HR->LR (migrations) and LR->HR (LR evictions + refresh
// staging) of `buffer_lines` entries each. A full LR->HR buffer forces
// dirty lines straight to DRAM (the paper's worst case: ~1% of writes).
//
// Search: sequential (writes probe LR tags first, reads probe HR first;
// miss probes the other serially) or parallel (both probed at once).
#pragma once

#include "sttl2/bank_base.hpp"
#include "sttl2/config.hpp"
#include "sttl2/retention.hpp"
#include "sttl2/rewrite_tracker.hpp"

namespace sttgpu::sttl2 {

/// Sliding-window occupancy model of a small swap buffer: each staged line
/// occupies a slot until the cycle its destination write completes.
class BufferWindow {
 public:
  explicit BufferWindow(unsigned capacity) : capacity_(capacity) {}

  bool full(Cycle now) noexcept {
    prune(now);
    return busy_until_.size() >= capacity_;
  }
  void add(Cycle done) { busy_until_.push_back(done); }
  std::size_t in_use(Cycle now) noexcept {
    prune(now);
    return busy_until_.size();
  }
  /// Non-mutating occupancy count (diagnostic dumps on const paths).
  std::size_t in_use_at(Cycle now) const noexcept {
    std::size_t n = 0;
    for (const Cycle c : busy_until_) n += c > now ? 1 : 0;
    return n;
  }
  unsigned capacity() const noexcept { return capacity_; }

 private:
  void prune(Cycle now) noexcept {
    std::erase_if(busy_until_, [now](Cycle c) { return c <= now; });
  }
  unsigned capacity_;
  std::vector<Cycle> busy_until_;
};

class TwoPartBank final : public BankBase {
 public:
  TwoPartBank(unsigned bank_id, const TwoPartBankConfig& config, const Clock& clock,
              gpu::DramChannel& dram);

  Watt leakage_w() const override { return hr_.costs.leakage_w + lr_.costs.leakage_w; }

  /// Base counters plus the two-part gauges: LR/HR occupancy and swap-buffer
  /// depths.
  void sample_telemetry(Cycle now, Telemetry& out) override;

  /// Base queue depths plus swap-buffer fill and the pending LR refreshes
  /// and HR expiries, at most one per resident line (watchdog diagnostic
  /// dumps).
  void describe_state(std::ostream& os, Cycle now) const override;

  // --- figure hooks ---
  const RewriteTracker& lr_rewrites() const noexcept { return lr_rewrites_; }
  const RewriteTracker& hr_rewrites() const noexcept { return hr_rewrites_; }

  const TwoPartBankConfig& config() const noexcept { return config_; }
  const power::ArrayCosts& hr_costs() const noexcept { return hr_.costs; }
  const power::ArrayCosts& lr_costs() const noexcept { return lr_.costs; }
  const cache::TagArray& lr_tags() const noexcept { return lr_.tags; }
  const cache::TagArray& hr_tags() const noexcept { return hr_.tags; }

  /// Fault-injection streams (inert when config().faults.enabled is false).
  const FaultModel& lr_faults() const noexcept { return lr_.faults; }
  const FaultModel& hr_faults() const noexcept { return hr_.faults; }

 protected:
  void process_request(const gpu::L2Request& request, Cycle now) override;
  void process_fill(Addr line_addr, Cycle now) override;
  void maintenance(Cycle now) override;
  Cycle impl_next_event() const override;

 private:
  void service(const gpu::L2Request& request, Cycle now, bool replay);
  /// Write into an LR-resident line (way known).
  Cycle lr_write_hit(Addr line_addr, unsigned way, Cycle now);
  /// Write into an HR-resident line; may trigger migration. Returns the
  /// completion cycle for the triggering store's ack.
  Cycle hr_write_hit(Addr line_addr, unsigned way, Cycle now);
  /// Installs @p addr into LR (migration target), evicting as needed.
  Cycle lr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle last_write,
                   Cycle now);
  /// Evicts the LR line at (set, way) toward HR via the LR->HR buffer (or
  /// forces it to DRAM if the buffer is full).
  void lr_evict(std::uint64_t set, unsigned way, Cycle now);
  /// Installs a line into HR (fills and LR evictions land here).
  Cycle hr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle now);

  void do_refresh(Cycle now);
  void do_hr_expiry(Cycle now);

  /// One physical line write into @p p (LR or HR): occupancy, energy and
  /// write-verify retries. Returns the completion cycle of the last pulse.
  Cycle data_write(Part& p, Addr key, Cycle now);

  /// Evaluates the decay of the hit line and applies recovery (see
  /// BankBase::check_hit), re-arming a scrubbed line's refresh (LR) or
  /// expiry (HR). Returns true if the line was invalidated.
  bool fault_read_check(bool lr_part, Addr key, unsigned way, Cycle now);

  TwoPartBankConfig config_;
  Part lr_;
  Part hr_;

  RetentionClock hr_retention_;
  RetentionClock lr_retention_;

  PicoJoule buffer_entry_pj_;

  BufferWindow hr2lr_;
  BufferWindow lr2hr_;

  DeadlineIndex refresh_q_;    ///< LR lines: when each is due for refresh
  DeadlineIndex hr_expiry_q_;  ///< HR lines: when each expires

  RewriteTracker lr_rewrites_;
  RewriteTracker hr_rewrites_;

  // Ledger/counter handles, interned once at construction so the per-access
  // path indexes vectors instead of hashing category/counter names.
  struct EnergyIds {
    power::EnergyId lr_refresh, buffer;
  } e_;
  struct CounterIds {
    CounterId w_demand, w_lr, w_lr_hit, w_hr;
    CounterId tag_probes_lr, tag_probes_hr;
    CounterId lr_phys_writes, hr_phys_writes;
    CounterId migrations, migrations_blocked, lr_evictions;
    CounterId lr_forced_wb, lr_forced_drop;
    CounterId hr_evict_dirty, hr_evict_clean;
    CounterId refreshes, refresh_forced_wb, refresh_forced_drop;
    CounterId hr_expired_dirty, hr_expired_clean;
  } c_;
};

}  // namespace sttgpu::sttl2
