#include "sim/probe.hpp"

#include "common/error.hpp"
#include "sttl2/factories.hpp"
#include "sttl2/two_part_bank.hpp"
#include "sttl2/uniform_bank.hpp"

namespace sttgpu::sim {

sttl2::TwoPartBankConfig c1_bank_config() {
  const ArchSpec c1 = make_arch(Architecture::kC1);
  return c1.two_part_cfg;
}

sttl2::UniformBankConfig sram_bank_config() {
  const ArchSpec base = make_arch(Architecture::kSramBaseline);
  return base.uniform;
}

TwoPartProbe run_two_part(const std::string& benchmark,
                          const sttl2::TwoPartBankConfig& bank_cfg, double scale,
                          const gpu::GpuConfig* gpu_cfg) {
  const gpu::GpuConfig gcfg = gpu_cfg ? *gpu_cfg : gpu::GpuConfig{};
  sttl2::TwoPartBankFactory factory(bank_cfg, gcfg.clock());
  gpu::Gpu g(gcfg, factory);
  const workload::Workload w = workload::make_benchmark(benchmark, scale);
  const gpu::RunResult r = g.run(w);

  TwoPartProbe probe;
  probe.metrics = metrics_of("two-part", benchmark, r);
  probe.counters = r.l2_counters;

  // Merge the per-bank histograms.
  std::vector<std::uint64_t> lr_buckets;
  std::vector<double> lr_edges;
  std::uint64_t hr_within = 0;
  for (unsigned b = 0; b < g.num_banks(); ++b) {
    const auto* bank = dynamic_cast<const sttl2::TwoPartBank*>(&g.bank(b));
    STTGPU_ASSERT(bank != nullptr);
    const Histogram& lr = bank->lr_rewrites().histogram();
    if (lr_buckets.empty()) {
      lr_buckets.assign(lr.bucket_count(), 0);
      for (std::size_t i = 0; i + 1 < lr.bucket_count(); ++i) {
        lr_edges.push_back(lr.upper_edge(i));
      }
    }
    for (std::size_t i = 0; i < lr.bucket_count(); ++i) lr_buckets[i] += lr.bucket(i);
    probe.lr_intervals += lr.total();

    const Histogram& hr = bank->hr_rewrites().histogram();
    probe.hr_intervals += hr.total();
    // Buckets 0..2 of the HR tracker are <=1ms, <=10ms, <=40ms.
    for (std::size_t i = 0; i < 3 && i < hr.bucket_count(); ++i) hr_within += hr.bucket(i);
  }
  if (!lr_edges.empty()) {
    Histogram merged(lr_edges);
    for (std::size_t i = 0; i < lr_buckets.size() && lr_buckets[i] + 1 != 0; ++i) {
      if (lr_buckets[i] == 0) continue;
      // Reinsert each bucket's mass at a representative value.
      const double v = i < lr_edges.size() ? lr_edges[i] : lr_edges.back() * 2;
      merged.add(v, lr_buckets[i]);
    }
    probe.lr_interval_hist = std::move(merged);
  }
  probe.lr_interval_fractions.assign(lr_buckets.size(), 0.0);
  if (probe.lr_intervals) {
    for (std::size_t i = 0; i < lr_buckets.size(); ++i) {
      probe.lr_interval_fractions[i] =
          static_cast<double>(lr_buckets[i]) / static_cast<double>(probe.lr_intervals);
    }
  }
  probe.hr_within_40ms =
      probe.hr_intervals
          ? static_cast<double>(hr_within) / static_cast<double>(probe.hr_intervals)
          : 1.0;

  const std::uint64_t demand = probe.counters.get("w_demand");
  probe.lr_write_utilization =
      demand ? static_cast<double>(probe.counters.get("w_lr_hit")) /
                   static_cast<double>(demand)
             : 0.0;
  return probe;
}

UniformProbe run_uniform(const std::string& benchmark,
                         const sttl2::UniformBankConfig& bank_cfg, double scale) {
  const gpu::GpuConfig gcfg{};
  sttl2::UniformBankFactory factory(bank_cfg, gcfg.clock());
  gpu::Gpu g(gcfg, factory);
  const workload::Workload w = workload::make_benchmark(benchmark, scale);
  const gpu::RunResult r = g.run(w);

  UniformProbe probe;
  probe.metrics = metrics_of("uniform", benchmark, r);
  probe.counters = r.l2_counters;

  StreamStats inter, intra;
  for (unsigned b = 0; b < g.num_banks(); ++b) {
    const auto* bank = dynamic_cast<const sttl2::UniformBank*>(&g.bank(b));
    STTGPU_ASSERT(bank != nullptr);
    inter.add(bank->write_variation().inter_set_cov());
    intra.add(bank->write_variation().intra_set_cov());
  }
  probe.inter_set_cov = inter.mean();
  probe.intra_set_cov = intra.mean();
  return probe;
}

}  // namespace sttgpu::sim
