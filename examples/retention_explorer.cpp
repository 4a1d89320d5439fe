// Explore the STT-RAM retention/write-cost trade-off (the paper's Table 1
// lever) and its system-level effect: sweep the LR part's retention time
// and report device parameters, refresh pressure and performance.
//
//   ./retention_explorer [benchmark=kmeans] [scale=0.3]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "nvm/cell.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"benchmark", "scale"});
  const std::string benchmark = cfg.get_string("benchmark", "kmeans");
  const double scale = cfg.get_double("scale", 0.3);

  std::cout << "Device view: retention vs write cost (MtjModel)\n\n";
  TextTable dev({"retention", "delta", "write ns", "write nJ/line", "refresh period"});
  const double retentions[] = {5e-6, 26.5e-6, 100e-6, 1e-3, 40e-3};
  const char* labels[] = {"5us", "26.5us (paper LR)", "100us", "1ms", "40ms (paper HR)"};
  nvm::MtjModel mtj;
  for (std::size_t i = 0; i < 5; ++i) {
    const double delta = mtj.delta_for_retention(retentions[i]);
    dev.add_row({labels[i], TextTable::fmt(delta, 2),
                 TextTable::fmt(mtj.write_pulse_ns(delta), 2),
                 TextTable::fmt(mtj.write_energy_nj_per_line(delta), 3),
                 labels[i]});
  }
  dev.print(std::cout);

  std::cout << "\nSystem view: LR retention sweep on " << benchmark << " (C1 geometry)\n\n";
  TextTable sys({"LR retention", "IPC", "refreshes", "forced wb", "LR util", "dyn W"});
  for (std::size_t i = 0; i < 4; ++i) {  // 40ms would equal HR: skip
    sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
    bank.lr_retention_s = retentions[i];
    const sim::TwoPartProbe p = sim::run_two_part(benchmark, bank, scale);
    sys.add_row({labels[i], TextTable::fmt(p.metrics.ipc, 3),
                 std::to_string(p.counters.get("refreshes")),
                 std::to_string(p.counters.get("refresh_forced_wb")),
                 TextTable::fmt_percent(p.lr_write_utilization),
                 TextTable::fmt(p.metrics.dynamic_w, 3)});
  }
  sys.print(std::cout);

  std::cout << "\nReading: shorter retention = cheaper writes but more refresh\n"
               "traffic; the paper picks 26.5us because the write working set is\n"
               "rewritten faster than it expires (Fig. 6), making refresh rare.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
