// Regenerates the paper's Figure 4: the effect of the HR write threshold
// (TH1, TH3, TH7, TH15) on
//   (top)    the LR-to-HR write ratio, normalized to TH1, and
//   (bottom) the total number of physical L2 writes, normalized to TH1
// on the C1 geometry.
//
//   ./fig4_write_threshold [scale=0.4]
//
// Shape to reproduce: lower thresholds strictly improve LR utilization with
// no noticeable total-write overhead, so TH1 (the plain modified bit) wins.
#include <iostream>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned thresholds[] = {1, 3, 7, 15};

  std::cout << "Figure 4: HR write-threshold analysis on C1 (normalized to TH1)\n\n";

  TextTable ratio({"benchmark", "TH1", "TH3", "TH7", "TH15"});
  TextTable overhead({"benchmark", "TH1", "TH3", "TH7", "TH15"});
  std::vector<std::vector<double>> ratio_cols(4), over_cols(4);

  for (const std::string& name : workload::benchmark_names()) {
    std::vector<std::string> r_row{name}, o_row{name};
    double base_ratio = 0.0, base_writes = 0.0;
    for (std::size_t t = 0; t < 4; ++t) {
      sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
      bank.write_threshold = thresholds[t];
      const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
      const double lr = static_cast<double>(p.counters.get("w_lr"));
      const double hr = static_cast<double>(p.counters.get("w_hr"));
      const double lr_hr_ratio = hr > 0 ? lr / hr : lr;
      const double total_writes = static_cast<double>(p.counters.get("lr_phys_writes") +
                                                      p.counters.get("hr_phys_writes"));
      if (t == 0) {
        base_ratio = lr_hr_ratio > 0 ? lr_hr_ratio : 1.0;
        base_writes = total_writes > 0 ? total_writes : 1.0;
      }
      const double nr = lr_hr_ratio / base_ratio;
      const double no = total_writes / base_writes;
      r_row.push_back(TextTable::fmt(nr, 3));
      o_row.push_back(TextTable::fmt(no, 3));
      if (lr_hr_ratio > 0) ratio_cols[t].push_back(nr);
      if (total_writes > 0) over_cols[t].push_back(no);
    }
    ratio.add_row(std::move(r_row));
    overhead.add_row(std::move(o_row));
  }

  std::vector<std::string> r_avg{"Gmean"}, o_avg{"Gmean"};
  for (std::size_t t = 0; t < 4; ++t) {
    r_avg.push_back(TextTable::fmt(geometric_mean(ratio_cols[t]), 3));
    o_avg.push_back(TextTable::fmt(geometric_mean(over_cols[t]), 3));
  }
  ratio.add_row(std::move(r_avg));
  overhead.add_row(std::move(o_avg));

  std::cout << "(a) LR/HR write ratio, normalized to TH1:\n";
  ratio.print(std::cout);
  std::cout << "\n(b) total physical L2 writes, normalized to TH1:\n";
  overhead.print(std::cout);
  std::cout << "\nShape check (paper): ratio falls as the threshold rises; total\n"
               "writes stay within a few percent of TH1 => threshold 1 is justified.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
