#include "sttl2/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace sttgpu::sttl2 {

namespace {

// Lifetime histogram edges: geometric, 50 ns .. 10 s at ratio 1.05. Fine
// enough that analyze_reliability's bucket-midpoint assessment differs from
// the exact per-lifetime expectation by under ~2.5% in the linear (p ~ t)
// regime — well inside the cross-validation tolerance.
std::vector<double> lifetime_edges_ns() {
  std::vector<double> edges;
  for (double e = 50.0; e < 1e10; e *= 1.05) edges.push_back(e);
  return edges;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the xor — decorrelates per-part streams that
  // share a user-facing seed.
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Cycle fault_interval_start(const cache::LineMeta& line, Cycle retention_cycles) noexcept {
  Cycle origin;
  if (line.retention_deadline != kNoCycle) {
    origin = line.retention_deadline - retention_cycles;
  } else if (line.last_write_cycle != kNoCycle) {
    origin = line.last_write_cycle;
  } else {
    origin = line.insert_cycle;
  }
  // A fault check from a *previous* interval (before the latest rewrite) is
  // stale; max() keeps whichever event is more recent without the write
  // paths having to reset the field.
  if (line.fault_check_cycle != kNoCycle && line.fault_check_cycle > origin) {
    origin = line.fault_check_cycle;
  }
  return origin;
}

FaultModel::FaultModel(const FaultInjectionConfig& config, double retention_s,
                       const Clock& clock, std::uint64_t stream_salt)
    : config_(config),
      retention_s_(retention_s > 0.0 ? retention_s : 1.0),
      clock_(clock),
      rng_(mix_seed(config.seed, stream_salt)),
      overflow_ns_(1e10) {
  if (retention_s <= 0.0) config_.enabled = false;  // SRAM: no retention physics
  if (config_.enabled) {
    STTGPU_REQUIRE(config_.accel >= 0.0, "FaultModel: accel must be non-negative");
    STTGPU_REQUIRE(config_.spec_margin >= 1.0, "FaultModel: spec margin must be >= 1");
    STTGPU_REQUIRE(config_.write_fail_prob >= 0.0 && config_.write_fail_prob <= 1.0,
                   "FaultModel: write_fail_prob must be a probability");
    lifetimes_ = Histogram(lifetime_edges_ns());
  }
  thermal_life_s_ = retention_s_ * config_.spec_margin;
  write_fail_p_ = std::min(config_.write_fail_prob * std::max(config_.accel, 1.0), 1.0);
}

double FaultModel::collapse_probability(Cycle written_at, Cycle now) const noexcept {
  if (now <= written_at) return 0.0;
  const double t_s = clock_.seconds_for_cycles(now - written_at);
  return 1.0 - std::exp(-config_.accel * t_s / thermal_life_s_);
}

FaultModel::Collapse FaultModel::sample_collapse(Cycle written_at, Cycle now) {
  // Zero-length intervals (the line was written or already evaluated this
  // very cycle) are not trials: no time passed, nothing could decay.
  if (now <= written_at) return Collapse::kNone;
  lifetimes_.add(clock_.ns_for_cycles(now - written_at));
  ++trials_;
  const double p = collapse_probability(written_at, now);
  expected_ += p;
  if (!rng_.chance(p)) return Collapse::kNone;
  ++collapses_;
  // Poisson bit-error split: lambda expected bad bits given P(>=1 bad) = p.
  const double lambda = -std::log1p(-p);
  const double p_single = lambda * std::exp(-lambda) / p;
  return rng_.chance(p_single) ? Collapse::kSingleBit : Collapse::kMultiBit;
}

bool FaultModel::sample_write_failure() { return rng_.chance(write_fail_p_); }

FaultModel::WriteVerify FaultModel::run_write_verify() {
  WriteVerify wv;
  if (!sample_write_failure()) return wv;
  while (wv.retries < config_.write_retry_limit) {
    ++wv.retries;
    if (!sample_write_failure()) return wv;
  }
  wv.escalated = true;
  return wv;
}

}  // namespace sttgpu::sttl2
