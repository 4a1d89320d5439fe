// Ablation (extension feature): runtime-adaptive migration threshold.
//
// When the write working set exceeds the LR capacity, TH1 migrates blocks
// that immediately bounce back out (churn). The adaptive monitor raises the
// threshold under churn and relaxes it when the LR has headroom. This bench
// compares fixed TH1 against the adaptive monitor on an LR squeezed to 1/4
// of the C1 size (to provoke churn) and on the normal C1 size.
//
//   ./abl_adaptive_threshold [scale=0.4] [jobs=N]
#include <iostream>
#include <iterator>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv);
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));
  const char* benchmarks[] = {"bfs", "mri-g", "kmeans", "histo", "backprop"};

  std::cout << "Ablation: adaptive migration threshold (extension)\n\n";
  TextTable table({"benchmark", "LR", "monitor", "migrations", "lr evictions",
                   "forced wb", "IPC"});

  // One job per (benchmark, LR size, monitor) cell; rows are filled by
  // index so the table order is identical for any job count.
  std::vector<std::vector<std::string>> rows(std::size(benchmarks) * 4);
  std::vector<sim::Job> work;
  std::size_t slot = 0;
  for (const char* name : benchmarks) {
    for (const bool squeezed : {false, true}) {
      for (const bool adaptive : {false, true}) {
        work.push_back(sim::Job{
            std::string(name) + (squeezed ? "/8KB" : "/32KB") +
                (adaptive ? "/adaptive" : "/TH1"),
            [&, name, squeezed, adaptive, slot](const sim::JobControl&) {
              sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
              if (squeezed) bank.lr_bytes /= 4;  // 8KB per bank: easy to thrash
              bank.adaptive_threshold = adaptive;
              const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
              rows[slot] = {name,
                            squeezed ? "8KB/bank" : "32KB/bank",
                            adaptive ? "adaptive" : "TH1",
                            std::to_string(p.counters.get("migrations")),
                            std::to_string(p.counters.get("lr_evictions")),
                            std::to_string(p.counters.get("lr_forced_wb")),
                            TextTable::fmt(p.metrics.ipc, 3)};
            }});
        ++slot;
      }
    }
  }
  sim::run_jobs(std::move(work), jobs);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  std::cout << "\nExpected: on the squeezed LR the adaptive monitor cuts migration\n"
               "churn substantially; on the properly sized C1 LR it stays at TH1\n"
               "and matches the paper's design.\n";
  return 0;
}
