// Regenerates the paper's Figure 5: LR write utilization as a function of
// the LR part's associativity (1/2/4/8/16-way), normalized to a fully-
// associative LR, on the C1 geometry.
//
//   ./fig5_associativity [scale=0.4]
//
// Shape to reproduce: utilization rises with associativity; 2-way captures
// most of the fully-associative utilization (the paper's design choice),
// with a visible 1-way vs 2-way gap for some benchmarks.
#include <iostream>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);
  // 0 means fully associative in TwoPartBankConfig.
  const unsigned assocs[] = {1, 2, 4, 8, 16, 0};

  std::cout << "Figure 5: LR write utilization vs associativity (normalized to fully-"
               "associative), C1 geometry\n\n";

  TextTable table({"benchmark", "1-way", "2-way", "4-way", "8-way", "16-way", "full"});
  std::vector<std::vector<double>> cols(6);

  for (const std::string& name : workload::benchmark_names()) {
    std::vector<double> util(6, 0.0);
    for (std::size_t a = 0; a < 6; ++a) {
      sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
      bank.lr_assoc = assocs[a];
      const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
      util[a] = p.lr_write_utilization;
    }
    const double full = util[5] > 0 ? util[5] : 1.0;
    std::vector<std::string> row{name};
    for (std::size_t a = 0; a < 6; ++a) {
      const double norm = util[5] > 0 ? util[a] / full : (a == 5 ? 1.0 : 0.0);
      row.push_back(TextTable::fmt(norm, 3));
      if (util[5] > 0) cols[a].push_back(norm > 0 ? norm : 1e-3);
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"Gmean"};
  for (std::size_t a = 0; a < 6; ++a) avg.push_back(TextTable::fmt(geometric_mean(cols[a]), 3));
  table.add_row(std::move(avg));
  table.print(std::cout);

  std::cout << "\nShape check (paper): monotone rise toward full associativity; the\n"
               "2-way point sits close to full => 2-way LR is the chosen design.\n"
               "(Benchmarks with no hot write set show utilization 0 and are\n"
               "reported as 0 across the row.)\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
