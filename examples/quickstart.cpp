// Quickstart: simulate one GPGPU benchmark on the SRAM baseline and on the
// paper's C1 two-part STT-RAM L2, and print the headline metrics.
//
//   ./quickstart [benchmark=bfs] [scale=0.3]
//
// This is the 60-second tour of the library: pick an architecture from the
// Table 2 registry, pick a workload model, run, read IPC and L2 power.
#include <iostream>

#include "common/config.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"benchmark", "scale"});
  const std::string benchmark = cfg.get_string("benchmark", "bfs");
  const double scale = cfg.get_double("scale", 0.3);

  std::cout << "benchmark: " << benchmark << " (scale " << scale << ")\n\n";

  for (const auto arch : {sim::Architecture::kSramBaseline, sim::Architecture::kC1}) {
    const sim::ArchSpec spec = sim::make_arch(arch);
    const workload::Workload w = workload::make_benchmark(benchmark, scale);
    const sim::Metrics m = sim::run_one(spec, w);

    std::cout << spec.name << ":  L2 " << spec.l2_total_bytes() / 1024 << "KB"
              << (spec.two_part ? " (two-part LR/HR)" : " (uniform)") << "\n"
              << "  IPC            " << m.ipc << "\n"
              << "  cycles         " << m.cycles << "\n"
              << "  L2 write share " << m.l2_write_share * 100 << "%\n"
              << "  L2 miss rate   " << m.l2_miss_rate * 100 << "%\n"
              << "  L2 power       " << m.total_w << " W (dynamic " << m.dynamic_w
              << " + leakage " << m.leakage_w << ")\n\n";
  }
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
