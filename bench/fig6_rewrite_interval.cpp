// Regenerates the paper's Figure 6: the distribution of rewrite-interval
// times of blocks resident in the LR part (C1 geometry), plus the Section 4
// companion claim that a 40ms HR retention covers >90% of HR rewrites.
//
//   ./fig6_rewrite_interval [scale=0.4]
//
// Shape to reproduce: the bulk of LR rewrites happen within ~10us — the
// justification for the 26.5us LR retention time.
#include <iostream>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);

  std::cout << "Figure 6: rewrite-interval distribution in the LR part (C1)\n\n";

  TextTable table({"benchmark", "<=10us", "<=50us", "<=100us", "<=1ms", "<=2.5ms",
                   ">2.5ms", "intervals"});
  std::vector<std::vector<double>> cols(6);
  TextTable hr_table({"benchmark", "HR rewrites <=40ms", "HR intervals"});
  std::vector<double> hr_cov;

  for (const std::string& name : workload::benchmark_names()) {
    const sim::TwoPartProbe p = sim::run_two_part(name, sim::c1_bank_config(), scale);
    std::vector<std::string> row{name};
    for (std::size_t i = 0; i < 6; ++i) {
      const double f = i < p.lr_interval_fractions.size() ? p.lr_interval_fractions[i] : 0.0;
      row.push_back(TextTable::fmt_percent(f));
      if (p.lr_intervals) cols[i].push_back(f);
    }
    row.push_back(std::to_string(p.lr_intervals));
    table.add_row(std::move(row));

    hr_table.add_row({name, TextTable::fmt_percent(p.hr_within_40ms),
                      std::to_string(p.hr_intervals)});
    if (p.hr_intervals) hr_cov.push_back(p.hr_within_40ms);
  }

  std::vector<std::string> avg{"AVG"};
  for (std::size_t i = 0; i < 6; ++i) {
    StreamStats s;
    for (double v : cols[i]) s.add(v);
    avg.push_back(TextTable::fmt_percent(s.mean()));
  }
  avg.push_back("");
  table.add_row(std::move(avg));
  table.print(std::cout);

  std::cout << "\nSection 4 claim: HR retention of 40ms covers >90% of HR rewrites:\n";
  hr_table.print(std::cout);
  StreamStats hr_avg;
  for (double v : hr_cov) hr_avg.add(v);
  std::cout << "average HR coverage: " << TextTable::fmt_percent(hr_avg.mean()) << "\n";

  std::cout << "\nShape check (paper): most LR rewrites within ~10us; 40ms covers\n"
               ">90% of HR rewrites.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
