// Ablation: sequential vs parallel cache search (Section 5's search
// selector). Sequential probing (writes: LR first; reads: HR first) saves
// tag-probe energy at the cost of a serialized second probe on first-probe
// misses.
//
//   ./abl_search_policy [scale=0.4]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale"});
  const double scale = cfg.get_double("scale", 0.4);

  std::cout << "Ablation: cache-search policy on C1\n\n";
  TextTable table({"benchmark", "policy", "tag probes (LR+HR)", "IPC", "dyn W"});

  for (const std::string& name : workload::benchmark_names()) {
    for (const auto policy : {sttl2::SearchPolicy::kSequential, sttl2::SearchPolicy::kParallel}) {
      sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
      bank.search = policy;
      const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
      table.add_row({name, sttl2::to_string(policy),
                     std::to_string(p.counters.get("tag_probes_lr") +
                                    p.counters.get("tag_probes_hr")),
                     TextTable::fmt(p.metrics.ipc, 3), TextTable::fmt(p.metrics.dynamic_w, 3)});
    }
  }
  table.print(std::cout);

  std::cout << "\nExpected: sequential search probes fewer tags (energy win) with a\n"
               "negligible IPC cost because the common case (writes in LR, reads in\n"
               "HR) hits on the first probe.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
