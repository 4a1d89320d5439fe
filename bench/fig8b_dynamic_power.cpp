// Regenerates the paper's Figure 8(b): L2 dynamic power of the STT-RAM
// baseline and C1/C2/C3, normalized to the SRAM baseline.
//
//   ./fig8b_dynamic_power [scale=0.5] [cache=fig8_cache.csv] [jobs=N]
//
// Shape to reproduce (paper): STT architectures pay MORE dynamic power than
// SRAM (write energy of MTJ cells; C1/C2/C3 averaged 1.69/1.67/1.94x in the
// paper), and the naive STT baseline is several times C1 (5x in the paper)
// because every write pays the 10-year write energy.
#include <iostream>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale", "cache", "jobs"});
  const double scale = cfg.get_double("scale", 0.5);
  const std::string cache = cfg.get_string("cache", "fig8_cache.csv");
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));

  const auto rows = sim::run_matrix(sim::all_architectures(),
                                    {.scale = scale, .cache_path = cache, .jobs = jobs});
  const auto base = sim::by_benchmark(rows, "sram");

  std::cout << "Figure 8(b): L2 dynamic power normalized to the SRAM baseline\n\n";
  TextTable table({"benchmark", "stt-base", "C1", "C2", "C3"});
  std::map<std::string, std::vector<double>> gmean;

  for (const std::string& name : workload::benchmark_names()) {
    std::vector<std::string> row{name};
    for (const char* arch : {"stt-base", "C1", "C2", "C3"}) {
      const auto m = sim::by_benchmark(rows, arch);
      const double norm = m.at(name).dynamic_w / base.at(name).dynamic_w;
      row.push_back(TextTable::fmt(norm, 3));
      gmean[arch].push_back(norm);
    }
    table.add_row(std::move(row));
  }
  table.add_row({"Gmean", TextTable::fmt(geometric_mean(gmean["stt-base"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C1"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C2"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C3"]), 3)});
  table.print(std::cout);

  const double c1 = geometric_mean(gmean["C1"]);
  const double sb = geometric_mean(gmean["stt-base"]);
  std::cout << "\nstt-base / C1 dynamic ratio: " << TextTable::fmt(sb / c1, 2)
            << "  (paper: ~5x — the two-part cache routes the write working\n"
               " set to cheap low-retention writes)\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
