// Ablation: LR-part share of the L2 capacity. The paper fixes LR at 1/8 of
// the total (192KB of 1536KB in C1). This sweep varies the LR share at a
// fixed total capacity and reports LR utilization, migration churn and IPC.
//
//   ./abl_lr_size [scale=0.4] [jobs=N]
#include <iostream>
#include <iterator>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/probe.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale", "jobs"});
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));
  const char* benchmarks[] = {"bfs", "kmeans", "mri-g", "stencil", "nw"};

  // Per-bank splits of the C1 total (256KB/bank), LR kept 2-way.
  const struct Split {
    const char* label;
    std::uint64_t hr_kb, lr_kb;
    unsigned hr_assoc;
  } splits[] = {
      {"1/16", 240, 16, 6},  // 240KB 6-way HR (960 lines) + 16KB LR
      {"1/8 (paper)", 224, 32, 7},
      {"1/4", 192, 64, 6},
      {"1/2", 128, 128, 8},
  };

  std::cout << "Ablation: LR share of a fixed 1536KB two-part L2 (per-bank view)\n\n";
  TextTable table({"benchmark", "LR share", "LR util", "migrations", "lr evictions", "IPC"});

  // One job per (benchmark, split); rows are filled by index so the table
  // order is identical for any job count.
  std::vector<std::vector<std::string>> rows(std::size(benchmarks) * std::size(splits));
  std::vector<sim::Job> work;
  std::size_t slot = 0;
  for (const char* name : benchmarks) {
    for (const Split& s : splits) {
      work.push_back(sim::Job{
          std::string(name) + "/" + s.label, [&, name, s, slot](const sim::JobControl&) {
            sttl2::TwoPartBankConfig bank = sim::c1_bank_config();
            bank.hr_bytes = s.hr_kb * 1024;
            bank.hr_assoc = s.hr_assoc;
            bank.lr_bytes = s.lr_kb * 1024;
            const sim::TwoPartProbe p = sim::run_two_part(name, bank, scale);
            rows[slot] = {name,
                          s.label,
                          TextTable::fmt_percent(p.lr_write_utilization),
                          std::to_string(p.counters.get("migrations")),
                          std::to_string(p.counters.get("lr_evictions")),
                          TextTable::fmt(p.metrics.ipc, 3)};
          }});
      ++slot;
    }
  }
  sim::run_jobs(std::move(work), jobs);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  std::cout << "\nExpected: a larger LR keeps more of the write working set (less\n"
               "eviction churn) but steals read capacity from HR; 1/8 is a good\n"
               "balance for this suite — the paper's choice.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
