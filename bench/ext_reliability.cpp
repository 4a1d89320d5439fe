// Extension analysis (beyond the paper's figures): retention reliability.
//
// Section 4 of the paper: lowering retention raises the error rate from
// early bit collapse, and the architecture answers with counter-scheduled
// refresh. This bench closes the loop quantitatively: it feeds each
// benchmark's *measured* LR rewrite-interval distribution (Fig. 6 data)
// into the Néel–Arrhenius decay model and reports the expected number of
// early-collapse events per run at 10x, 100x and 1000x retention guard
// bands, with refresh bounding every decay window (the real design).
//
//   ./ext_reliability [scale=0.4]
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/probe.hpp"
#include "sttl2/reliability.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);

  // Refresh fires one 4-bit counter tick before the 26.5us deadline.
  const double refresh_s = 26.5e-6 * 15.0 / 16.0;
  const double overflow_ns = ms_to_ns(5.0);

  std::cout << "Extension: expected early-collapse events in the LR part (C1)\n"
               "as a function of the device's retention guard band (thermal life /\n"
               "quoted 26.5us retention). Refresh fires one counter tick before\n"
               "the quoted deadline, bounding every decay window.\n\n";

  TextTable table({"benchmark", "lifetimes", "margin 10x", "margin 100x", "margin 1000x"});
  const std::vector<std::string> names = workload::benchmark_names();
  int over_one_100x = 0, over_one_1000x = 0;  // benchmarks expecting > 1 collapse
  for (const std::string& name : names) {
    const sim::TwoPartProbe p = sim::run_two_part(name, sim::c1_bank_config(), scale);
    if (p.lr_intervals == 0) {
      table.add_row({name, "0", "-", "-", "-"});
      continue;
    }
    const auto at = [&](double margin, double refresh) {
      return sttl2::analyze_reliability(p.lr_interval_hist, 26.5e-6, refresh, overflow_ns,
                                        margin)
          .expected_failures;
    };
    const double at_100x = at(100.0, refresh_s);
    const double at_1000x = at(1000.0, refresh_s);
    over_one_100x += at_100x > 1.0;
    over_one_1000x += at_1000x > 1.0;
    table.add_row({name, std::to_string(p.lr_intervals),
                   TextTable::fmt(at(10.0, refresh_s), 3), TextTable::fmt(at_100x, 4),
                   TextTable::fmt(at_1000x, 5)});
  }
  table.print(std::cout);

  std::cout << "\nReading: expected failures fall ~linearly with the device guard\n"
               "band, and refresh bounds every decay window at one counter tick\n"
               "before the deadline (lines never rewritten are refreshed or, at\n"
               "worst, written back — see the refresh_forced_wb counters). Refresh\n"
               "does not make collapses rare: at the ~100x margins typical of\n"
               "published multi-retention designs, "
            << over_one_100x << " of " << names.size()
            << " benchmarks expect more\n"
               "than one collapse per run, and "
            << over_one_1000x
            << " still do at 1000x. The paper's\n"
               "'early data bit collapse' concern is real for the LR part; what\n"
               "ECC and clean re-fetch recover is measured by faults=1 runs.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
