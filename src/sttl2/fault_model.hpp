// Per-line STT-RAM fault injection (Section 4's "early data bit collapse",
// made to actually happen in-sim).
//
// The analytic reliability report (reliability.hpp) scores the paper's
// retention trade *after the fact* from a lifetime histogram. This module is
// the in-simulation counterpart: every time a stored datum's lifetime ends —
// it is rewritten, refreshed, read out for a writeback, or accessed by a
// demand read — the owning bank asks the FaultModel whether the datum
// collapsed during that lifetime. The collapse probability is the same
// Néel–Arrhenius law the analytic model uses,
//
//     P(collapse within t) = 1 - exp(-accel * t / (retention * spec_margin)),
//
// so the injected failure count converges to the analyze_reliability
// prediction evaluated over the same lifetimes (the cross-validation test in
// tests/test_sttl2_faults.cpp). `accel` scales the hazard so statistics
// converge in feasible horizons. Collapses are not rare at accel=1 either:
// with the default 20x guard band, `sttgpu run arch=C1 benchmark=bfs
// scale=0.5 faults=1` injects 172 against 168.5 expected (ROADMAP item 8).
//
// Collapse severity follows a Poisson bit-error interpretation of the line
// hazard: with lambda = -ln(1 - P) expected collapsed bits, a collapsed line
// has exactly one bad bit with probability lambda*e^-lambda / (1 - e^-lambda)
// — which is what a SECDED code can repair — and more than one otherwise.
//
// Stochastic write failures model the MTJ's non-deterministic switching:
// each physical line write fails verification with write_fail_prob (times
// accel); the recovery policy (bounded retry, then a boosted pulse) lives in
// BankBase, which charges the extra energy and occupancy per retry to the
// written Part.
//
// Determinism: each FaultModel owns a private xoshiro stream seeded from
// (config seed, stream salt), so a (seed, workload) pair replays the exact
// fault sequence regardless of thread count or fast-forward mode. A
// disabled model performs no draws and the banks never call into it.
#pragma once

#include <cstdint>

#include "cache/tag_array.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sttl2/config.hpp"

namespace sttgpu::sttl2 {

/// Start cycle of @p line's current *unevaluated* decay interval: the later
/// of the last fault evaluation and the last physical write. The write time
/// is derived from the retention deadline (deadline - retention) so that
/// refreshes and scrubs — which restart decay without touching
/// last_write_cycle — are honoured; lines that never set a deadline
/// (non-volatile arrays) fall back to last_write_cycle, then insert_cycle.
/// Evaluating disjoint intervals is exact for the exponential (memoryless)
/// collapse law: P(fail in [a,c] | alive at b) factors through [a,b], [b,c].
Cycle fault_interval_start(const cache::LineMeta& line, Cycle retention_cycles) noexcept;

class FaultModel {
 public:
  /// Outcome of one completed data lifetime.
  enum class Collapse {
    kNone,       ///< datum survived
    kSingleBit,  ///< one collapsed bit — SECDED-correctable
    kMultiBit,   ///< >= 2 collapsed bits — SECDED detects, cannot correct
  };

  /// @p retention_s quoted retention of the array's cells; @p stream_salt
  /// decorrelates per-bank / per-part RNG streams (e.g. bank_id * 2 + part).
  /// A non-positive retention (SRAM cells) force-disables the model: fault
  /// injection is an STT-RAM retention phenomenon, so an SRAM bank with
  /// faults "enabled" is simply inert rather than an error.
  FaultModel(const FaultInjectionConfig& config, double retention_s, const Clock& clock,
             std::uint64_t stream_salt);

  bool enabled() const noexcept { return config_.enabled; }
  const FaultInjectionConfig& config() const noexcept { return config_; }
  double retention_s() const noexcept { return retention_s_; }

  /// Collapse probability for a datum stored for [written_at, now].
  double collapse_probability(Cycle written_at, Cycle now) const noexcept;

  /// Samples one completed data lifetime [written_at, now]: records the
  /// trial (lifetime histogram + exact expectation) and draws the outcome.
  /// Precondition: enabled().
  Collapse sample_collapse(Cycle written_at, Cycle now);

  /// Samples one write attempt; true = the attempt failed verification.
  /// Precondition: enabled().
  bool sample_write_failure();

  /// Outcome of the write-verify policy for one physical line write.
  struct WriteVerify {
    unsigned retries = 0;  ///< re-issued pulses after the initial attempt
    bool escalated = false;  ///< every retry failed; boosted (2x) pulse issued
  };

  /// Runs the full write-verify loop: samples the initial attempt and up to
  /// write_retry_limit retries; if all fail, the controller escalates to a
  /// boosted pulse that always sticks. The caller charges the energy and
  /// array occupancy for each extra pulse. Precondition: enabled().
  WriteVerify run_write_verify();

  // --- cross-validation hooks (see tests/test_sttl2_faults.cpp) ---

  /// Every evaluated lifetime, in nanoseconds (fine geometric buckets, so
  /// analyze_reliability's bucket-midpoint assessment stays close to the
  /// exact per-lifetime expectation). A disabled model builds no buckets.
  const Histogram& lifetimes_ns() const noexcept { return lifetimes_; }

  /// Representative lifetime for the histogram's overflow bucket (pass as
  /// analyze_reliability's overflow_lifetime_ns).
  double overflow_lifetime_ns() const noexcept { return overflow_ns_; }

  /// Effective spec margin of the accelerated hazard: feeding this to
  /// analyze_reliability reproduces this model's probabilities exactly.
  /// (Only >= 1 — i.e. accel <= spec_margin — is accepted there.)
  double effective_spec_margin() const noexcept { return config_.spec_margin / config_.accel; }

  std::uint64_t trials() const noexcept { return trials_; }
  std::uint64_t collapses() const noexcept { return collapses_; }
  /// Exact analytic expectation Sum p_i over the evaluated lifetimes — what
  /// analyze_reliability computes, minus its bucketing approximation.
  double expected_collapses() const noexcept { return expected_; }

 private:
  FaultInjectionConfig config_;
  double retention_s_;
  double thermal_life_s_;  ///< retention * spec_margin / accel
  double write_fail_p_;    ///< write_fail_prob * accel, clamped to [0, 1]
  Clock clock_;
  Rng rng_;
  Histogram lifetimes_;
  double overflow_ns_;
  std::uint64_t trials_ = 0;
  std::uint64_t collapses_ = 0;
  double expected_ = 0.0;
};

}  // namespace sttgpu::sttl2
