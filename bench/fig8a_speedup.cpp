// Regenerates the paper's Figure 8(a): per-benchmark speedup of the
// STT-RAM baseline and the proposed C1/C2/C3 architectures, normalized to
// the SRAM baseline, grouped by region, with the geometric mean.
//
//   ./fig8a_speedup [scale=0.5] [cache=fig8_cache.csv] [jobs=N]
//
// The 80 underlying simulations run on `jobs` worker threads (default all
// hardware threads) and are cached in a CSV (shared with the fig8b/fig8c
// binaries); delete the file to force re-simulation. A cache written at a
// different scale or simulator config is discarded automatically.
//
// Shape to reproduce (paper): STT baseline ~+5% average with per-benchmark
// regressions; C1 ~+16% average and >2x best case; C1/C2/C3 without the
// STT baseline's write-latency collapses; region structure as annotated.
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

  std::cout << "Figure 8(a): speedup over the SRAM baseline\n\n";
  TextTable table({"benchmark", "region", "stt-base", "C1", "C2", "C3"});
  std::map<std::string, std::vector<double>> gmean;

  for (const std::string& name : workload::benchmark_names()) {
    const workload::Workload w = workload::make_benchmark(name, scale);
    std::vector<std::string> row{name, w.region};
    for (const char* arch : {"stt-base", "C1", "C2", "C3"}) {
      const auto m = sim::by_benchmark(rows, arch);
      const double speedup = m.at(name).ipc / base.at(name).ipc;
      row.push_back(TextTable::fmt(speedup, 3));
      gmean[arch].push_back(speedup);
    }
    table.add_row(std::move(row));
  }
  table.add_row({"Gmean", "", TextTable::fmt(geometric_mean(gmean["stt-base"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C1"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C2"]), 3),
                 TextTable::fmt(geometric_mean(gmean["C3"]), 3)});
  table.print(std::cout);

  std::cout << "\nPaper reference points: stt-base +5% avg (with degradations),\n"
               "C1 +16% avg / >2x best, no C1-C3 write-latency collapses.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
