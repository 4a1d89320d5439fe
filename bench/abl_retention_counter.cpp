// Ablation: LR retention-counter width. The paper uses a 4-bit counter per
// LR line (vs 2-bit in HR): a wider counter tracks age more precisely, so
// refresh can be postponed closer to the retention deadline — fewer
// refreshes per line lifetime. Narrow counters refresh earlier and more
// often.
//
//   ./abl_retention_counter [scale=0.4]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned bits[] = {2, 3, 4, 6};
  const char* benchmarks[] = {"bfs", "kmeans", "tpacf", "hotspot", "nw"};

  std::cout << "Ablation: LR retention-counter width (C1 geometry)\n\n";
  TextTable table({"benchmark", "bits", "refreshes", "refresh pJ", "forced wb", "IPC"});

  for (const char* name : benchmarks) {
    for (const unsigned b : bits) {
      sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
      bank.lr_counter_bits = b;
      const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
      table.add_row({name, std::to_string(b), std::to_string(p.counters.get("refreshes")),
                     "(see fig8b for energy roll-up)",
                     std::to_string(p.counters.get("refresh_forced_wb")),
                     TextTable::fmt(p.metrics.ipc, 3)});
    }
  }
  table.print(std::cout);

  std::cout << "\nExpected: refresh count falls as the counter widens (refresh is\n"
               "postponed to the last counter period, and that period shrinks).\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
