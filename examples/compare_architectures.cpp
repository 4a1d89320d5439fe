// Compare all five Table 2 architectures on one benchmark: the per-workload
// view of the paper's Figure 8 (speedup, dynamic power, total power, all
// normalized to the SRAM baseline).
//
//   ./compare_architectures [benchmark=kmeans] [scale=0.5]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"benchmark", "scale"});
  const std::string benchmark = cfg.get_string("benchmark", "kmeans");
  const double scale = cfg.get_double("scale", 0.5);

  const workload::Workload probe = workload::make_benchmark(benchmark, scale);
  std::cout << "benchmark " << benchmark << " (region " << probe.region << ", scale "
            << scale << ")\n\n";

  sim::Metrics base;
  TextTable table({"arch", "L2", "regs/SM", "IPC", "speedup", "dyn W", "total W",
                   "dyn(norm)", "total(norm)"});
  for (const auto arch : sim::all_architectures()) {
    const sim::ArchSpec spec = sim::make_arch(arch);
    const workload::Workload w = workload::make_benchmark(benchmark, scale);
    const sim::Metrics m = sim::run_one(spec, w);
    if (arch == sim::Architecture::kSramBaseline) base = m;

    table.add_row({spec.name, std::to_string(spec.l2_total_bytes() / 1024) + "KB",
                   std::to_string(spec.gpu.registers_per_sm), TextTable::fmt(m.ipc, 3),
                   TextTable::fmt(m.ipc / base.ipc, 3), TextTable::fmt(m.dynamic_w, 3),
                   TextTable::fmt(m.total_w, 3), TextTable::fmt(m.dynamic_w / base.dynamic_w, 2),
                   TextTable::fmt(m.total_w / base.total_w, 2)});
  }
  table.print(std::cout);
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
