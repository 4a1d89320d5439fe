#include "sim/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "sttl2/factories.hpp"

namespace sttgpu::sim {

namespace {

/// L2Bank decorator: records every request, delegates everything.
class TracingBank final : public gpu::L2Bank {
 public:
  TracingBank(std::unique_ptr<gpu::L2Bank> inner, unsigned bank_id,
              std::vector<TraceRecord>* sink)
      : inner_(std::move(inner)), bank_id_(bank_id), sink_(sink) {}

  bool accepting() const override { return inner_->accepting(); }
  void enqueue(const gpu::L2Request& request, Cycle now) override {
    sink_->push_back({now, bank_id_, request.addr, request.is_store, request.sm_id});
    inner_->enqueue(request, now);
  }
  void tick(Cycle now) override { inner_->tick(now); }
  void drain_responses(Cycle now, std::vector<gpu::L2Response>& out) override {
    inner_->drain_responses(now, out);
  }
  void on_dram_read_done(std::uint64_t cookie, Cycle now) override {
    inner_->on_dram_read_done(cookie, now);
  }
  bool idle() const override { return inner_->idle(); }
  Cycle next_event_cycle() const override { return inner_->next_event_cycle(); }
  void attach_telemetry(Telemetry* sink) override { inner_->attach_telemetry(sink); }
  void sample_telemetry(Cycle now, Telemetry& out) override {
    inner_->sample_telemetry(now, out);
  }
  void describe_state(std::ostream& os, Cycle now) const override {
    inner_->describe_state(os, now);
  }
  const gpu::L2BankStats& stats() const override { return inner_->stats(); }
  const power::EnergyLedger& energy() const override { return inner_->energy(); }
  Watt leakage_w() const override { return inner_->leakage_w(); }

  gpu::L2Bank& inner() const { return *inner_; }

 private:
  std::unique_ptr<gpu::L2Bank> inner_;
  unsigned bank_id_;
  std::vector<TraceRecord>* sink_;
};

class TracingFactory final : public gpu::L2BankFactory {
 public:
  TracingFactory(gpu::L2BankFactory& inner, std::vector<TraceRecord>* sink)
      : inner_(&inner), sink_(sink) {}

  std::unique_ptr<gpu::L2Bank> make_bank(unsigned bank_id, gpu::DramChannel& dram) override {
    return std::make_unique<TracingBank>(inner_->make_bank(bank_id, dram), bank_id, sink_);
  }
  void collect(const gpu::L2Bank& bank, CounterSet& out) const override {
    const auto* tracing = dynamic_cast<const TracingBank*>(&bank);
    STTGPU_ASSERT(tracing != nullptr);
    inner_->collect(tracing->inner(), out);
  }

 private:
  gpu::L2BankFactory* inner_;
  std::vector<TraceRecord>* sink_;
};

template <typename FactoryT>
ReplayResult replay_impl(const std::vector<TraceRecord>& records, FactoryT& factory,
                         const gpu::GpuConfig& gpu_cfg) {
  unsigned num_banks = 0;
  for (const TraceRecord& r : records) num_banks = std::max(num_banks, r.bank + 1);
  STTGPU_REQUIRE(num_banks > 0, "replay_trace: empty trace");

  // Per-bank private DRAM channel, wired exactly like gpu::Gpu does it.
  std::vector<std::unique_ptr<gpu::L2Bank>> banks(num_banks);
  std::vector<std::unique_ptr<gpu::DramChannel>> drams;
  drams.reserve(num_banks);
  for (unsigned b = 0; b < num_banks; ++b) {
    drams.push_back(std::make_unique<gpu::DramChannel>(
        gpu_cfg, [&banks, b](std::uint64_t cookie, Cycle now) {
          banks[b]->on_dram_read_done(cookie, now);
        }));
  }
  for (unsigned b = 0; b < num_banks; ++b) banks[b] = factory.make_bank(b, *drams[b]);

  std::vector<TraceRecord> sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.cycle < b.cycle; });

  std::vector<gpu::L2Response> responses;
  std::uint64_t next_id = 1;
  Cycle now = 0;
  std::size_t i = 0;
  const auto all_idle = [&] {
    for (const auto& bank : banks) {
      if (!bank->idle()) return false;
    }
    for (const auto& d : drams) {
      if (!d->idle()) return false;
    }
    return true;
  };

  while (i < sorted.size() || !all_idle()) {
    while (i < sorted.size() && sorted[i].cycle <= now) {
      const TraceRecord& r = sorted[i];
      gpu::L2Request req;
      req.id = next_id++;
      req.addr = r.addr;
      req.is_store = r.is_store;
      req.sm_id = r.sm;
      req.created = now;
      // Replay is open-loop: if the bank input is momentarily full, we stall
      // the whole feed to the next cycle (preserves order).
      if (!banks[r.bank]->accepting()) break;
      banks[r.bank]->enqueue(req, now);
      ++i;
    }
    for (auto& d : drams) d->tick(now);
    for (auto& bank : banks) {
      bank->tick(now);
      responses.clear();
      bank->drain_responses(now, responses);  // responses are discarded
    }
    ++now;
    STTGPU_REQUIRE(now < 2'000'000'000, "replay_trace: exceeded the cycle ceiling");
  }

  ReplayResult result;
  result.cycles = now;
  for (const auto& bank : banks) {
    result.stats.merge(bank->stats());
    result.dynamic_energy_pj += bank->energy().total_pj();
    result.leakage_w += bank->leakage_w();
    factory.collect(*bank, result.counters);
  }
  return result;
}

}  // namespace

Metrics record_trace(const ArchSpec& spec, const workload::Workload& workload,
                     const std::string& trace_path, const RunOptions& opts) {
  // Run-mode knobs and banks exactly as run_one builds them (runner.cpp).
  const ArchSpec s = configured(spec, opts);
  const std::unique_ptr<gpu::L2BankFactory> inner = make_factory(s);
  std::vector<TraceRecord> records;
  TracingFactory factory(*inner, &records);
  gpu::Gpu g(s.gpu, factory);
  const gpu::RunResult run = g.run(workload);
  save_trace(trace_path, records);
  return metrics_of(s.name, workload.name, run);
}

void save_trace(const std::string& trace_path, const std::vector<TraceRecord>& records) {
  std::ofstream out(trace_path);
  STTGPU_REQUIRE(static_cast<bool>(out), "save_trace: cannot open " + trace_path);
  out << "cycle,bank,addr,is_store,sm\n";
  for (const TraceRecord& r : records) {
    out << r.cycle << ',' << r.bank << ',' << r.addr << ',' << (r.is_store ? 1 : 0) << ','
        << r.sm << '\n';
  }
}

std::vector<TraceRecord> load_trace(const std::string& trace_path) {
  std::ifstream in(trace_path);
  STTGPU_REQUIRE(static_cast<bool>(in), "load_trace: cannot open " + trace_path);
  std::string line;
  STTGPU_REQUIRE(static_cast<bool>(std::getline(in, line)), "load_trace: empty file");
  STTGPU_REQUIRE(line == "cycle,bank,addr,is_store,sm",
                 "load_trace: unrecognized header: " + line);

  std::vector<TraceRecord> records;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    TraceRecord r;
    char comma = 0;
    int is_store = 0;
    ss >> r.cycle >> comma >> r.bank >> comma >> r.addr >> comma >> is_store >> comma >> r.sm;
    STTGPU_REQUIRE(!ss.fail(), "load_trace: malformed line: " + line);
    r.is_store = is_store != 0;
    records.push_back(r);
  }
  return records;
}

ReplayResult replay_trace(const std::vector<TraceRecord>& records,
                          const sttl2::TwoPartBankConfig& bank_cfg,
                          const gpu::GpuConfig& gpu_cfg) {
  sttl2::TwoPartBankFactory factory(bank_cfg, gpu_cfg.clock());
  return replay_impl(records, factory, gpu_cfg);
}

ReplayResult replay_trace(const std::vector<TraceRecord>& records,
                          const sttl2::UniformBankConfig& bank_cfg,
                          const gpu::GpuConfig& gpu_cfg) {
  sttl2::UniformBankFactory factory(bank_cfg, gpu_cfg.clock());
  return replay_impl(records, factory, gpu_cfg);
}

}  // namespace sttgpu::sim
