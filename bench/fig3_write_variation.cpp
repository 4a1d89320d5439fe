// Regenerates the paper's Figure 3: inter- and intra-set write variation
// (i2WAP coefficient of variation) of the L2 cache across the benchmark
// suite, measured on the SRAM baseline, plus the geometric mean.
//
//   ./fig3_write_variation [scale=0.5]
//
// Shape to reproduce: hot-spot writers (bfs, kmeans, backprop, mri-g,
// tpacf, histo) show much higher variation than even writers (stencil,
// cfd, lbm, sad).
#include <iostream>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.5);

  std::cout << "Figure 3: inter/intra-set write variation (COV) on the SRAM baseline\n\n";

  TextTable table({"benchmark", "region", "inter-set COV", "intra-set COV", "write share"});
  std::vector<double> inter, intra;
  for (const std::string& name : workload::benchmark_names()) {
    const sim::UniformProbe p = sim::run_uniform(name, sim::sram_bank_config(), scale);
    const workload::Workload w = workload::make_benchmark(name, scale);
    table.add_row({name, w.region, TextTable::fmt_percent(p.inter_set_cov),
                   TextTable::fmt_percent(p.intra_set_cov),
                   TextTable::fmt_percent(p.metrics.l2_write_share)});
    if (p.inter_set_cov > 0) inter.push_back(p.inter_set_cov);
    if (p.intra_set_cov > 0) intra.push_back(p.intra_set_cov);
  }
  table.add_row({"Gmean", "", TextTable::fmt_percent(geometric_mean(inter)),
                 TextTable::fmt_percent(geometric_mean(intra)), ""});
  table.print(std::cout);

  std::cout << "\nShape check (paper): large variation spread across the suite;\n"
               "hot-write benchmarks far above the even writers — this justifies a\n"
               "write-favouring low-retention region in the L2.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
