#include "timed_bank.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/error.hpp"

namespace e2e {

namespace gpu = sttgpu::gpu;
using sttgpu::Cycle;
using SteadyClock = std::chrono::steady_clock;

namespace {

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

class TimedBank final : public gpu::L2Bank {
 public:
  TimedBank(std::unique_ptr<gpu::L2Bank> inner, BankSpans& sink)
      : inner_(std::move(inner)), sink_(&sink) {}

  bool accepting() const override {
    ++sink_->queries;
    return inner_->accepting();
  }
  void enqueue(const gpu::L2Request& request, Cycle now) override {
    work(BankSpans::kEnqueue, [&] { inner_->enqueue(request, now); });
  }
  void tick(Cycle now) override {
    work(BankSpans::kTick, [&] { inner_->tick(now); });
  }
  void drain_responses(Cycle now, std::vector<gpu::L2Response>& out) override {
    const std::size_t before = out.size();
    work(BankSpans::kDrain, [&] { inner_->drain_responses(now, out); });
    if (out.size() > before) ++sink_->useful_drains;
  }
  void on_dram_read_done(std::uint64_t cookie, Cycle now) override {
    work(BankSpans::kFill, [&] { inner_->on_dram_read_done(cookie, now); });
  }
  bool idle() const override {
    ++sink_->queries;
    return inner_->idle();
  }
  Cycle next_event_cycle() const override {
    ++sink_->queries;
    return inner_->next_event_cycle();
  }
  void attach_telemetry(sttgpu::Telemetry* sink) override { inner_->attach_telemetry(sink); }
  void sample_telemetry(Cycle now, sttgpu::Telemetry& out) override {
    inner_->sample_telemetry(now, out);
  }
  void describe_state(std::ostream& os, Cycle now) const override {
    inner_->describe_state(os, now);
  }
  const gpu::L2BankStats& stats() const override { return inner_->stats(); }
  const sttgpu::power::EnergyLedger& energy() const override { return inner_->energy(); }
  sttgpu::Watt leakage_w() const override { return inner_->leakage_w(); }

  const gpu::L2Bank& inner() const { return *inner_; }

 private:
  template <typename Fn>
  void work(BankSpans::Op op, Fn&& fn) {
    ++sink_->calls[op];
    if (!sink_->sample()) {
      fn();
      return;
    }
    const auto t0 = SteadyClock::now();
    fn();
    sink_->sampled_ns[op] += ns_between(t0, SteadyClock::now());
    ++sink_->sampled[op];
  }

  std::unique_ptr<gpu::L2Bank> inner_;
  BankSpans* sink_;
};

}  // namespace

double BankSpans::op_ns(Op op, double span_cost_ns) const {
  if (sampled[op] == 0) return 0.0;
  const double n = static_cast<double>(sampled[op]);
  const double mean = std::max(0.0, static_cast<double>(sampled_ns[op]) / n - span_cost_ns);
  return mean * static_cast<double>(calls[op]);
}

double BankSpans::self_s(double span_cost_ns) const {
  double total = 0.0;
  for (int op = 0; op < kOps; ++op) total += op_ns(static_cast<Op>(op), span_cost_ns);
  return total * 1e-9;
}

double calibrate_span_cost_ns() {
  constexpr int kPairs = 200000;
  std::vector<std::uint64_t> d(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = SteadyClock::now();
    d[i] = ns_between(t0, SteadyClock::now());
  }
  std::nth_element(d.begin(), d.begin() + kPairs / 2, d.end());
  return static_cast<double>(d[kPairs / 2]);
}

std::unique_ptr<gpu::L2Bank> TimedFactory::make_bank(unsigned bank_id,
                                                     gpu::DramChannel& dram) {
  return std::make_unique<TimedBank>(inner_->make_bank(bank_id, dram), *sink_);
}

void TimedFactory::collect(const gpu::L2Bank& bank, sttgpu::CounterSet& out) const {
  const auto* timed = dynamic_cast<const TimedBank*>(&bank);
  STTGPU_ASSERT(timed != nullptr);
  inner_->collect(timed->inner(), out);
}

}  // namespace e2e
