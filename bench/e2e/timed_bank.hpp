// The traced run's sttl2 layer: an L2Bank decorator over the real sttl2
// factories (the same pattern as sim/trace.cpp's TracingBank) that times the
// calls doing bank work and only counts the cheap queries.
//
// Timing every bank call made a traced matrix ~1.5x slower: the Gpu makes
// tens of millions of bank calls, most of them shorter than two clock reads.
// So the accepting/idle/next_event_cycle queries are only counted, and of
// the four work calls (tick, enqueue, drain_responses, on_dram_read_done)
// every call is counted but only a pseudo-random 1 in kSampleEvery is timed;
// the layer's time is the sampled mean, less the clock's own per-span cost
// (calibrated at startup), times the call count. The Gpu never nests these
// calls (DRAM completions arrive from the DRAM tick, before the bank tick),
// so the spans are disjoint and their sum is the layer's self time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "gpu/gpu.hpp"

namespace e2e {

struct BankSpans {
  enum Op { kTick, kEnqueue, kDrain, kFill, kOps };
  static constexpr std::uint64_t kSampleEvery = 32;  ///< a power of two

  std::array<std::uint64_t, kOps> calls{};
  std::array<std::uint64_t, kOps> sampled{};
  std::array<std::uint64_t, kOps> sampled_ns{};
  std::uint64_t queries = 0;       ///< accepting/idle/next_event_cycle, counted only
  std::uint64_t useful_drains = 0; ///< drain_responses calls that returned >= 1 response
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;

  /// Decides whether the next call is timed (xorshift64, so the choice does
  /// not lock onto the Gpu's fixed bank order).
  bool sample() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return (rng & (kSampleEvery - 1)) == 0;
  }

  /// Estimated time in one op over all its calls, nanoseconds.
  double op_ns(Op op, double span_cost_ns) const;
  /// Estimated time in all four ops, seconds.
  double self_s(double span_cost_ns) const;
};

/// Cost one steady_clock span adds to what it measures: the median of
/// back-to-back clock-read pairs, in nanoseconds.
double calibrate_span_cost_ns();

/// Wraps every bank @p inner builds; all spans land in @p sink.
class TimedFactory final : public sttgpu::gpu::L2BankFactory {
 public:
  TimedFactory(sttgpu::gpu::L2BankFactory& inner, BankSpans& sink)
      : inner_(&inner), sink_(&sink) {}

  std::unique_ptr<sttgpu::gpu::L2Bank> make_bank(unsigned bank_id,
                                                 sttgpu::gpu::DramChannel& dram) override;
  void collect(const sttgpu::gpu::L2Bank& bank, sttgpu::CounterSet& out) const override;

 private:
  sttgpu::gpu::L2BankFactory* inner_;
  BankSpans* sink_;
};

}  // namespace e2e
