// Ablation: DRAM page policy (closed-page vs open-page row-buffer model).
// The paper's conclusions concern the L2; this checks they survive a more
// detailed memory model.
//
//   ./abl_dram_page [scale=0.4] [jobs=N]
#include <iostream>
#include <iterator>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale", "jobs"});
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));
  const char* benchmarks[] = {"lbm", "sad", "bfs", "kmeans"};

  std::cout << "Ablation: DRAM page policy\n\n";
  TextTable table({"benchmark", "page policy", "sram IPC", "C1 IPC", "C1 speedup"});

  // One job per (benchmark, page policy) pair (each runs SRAM and C1); rows
  // are filled by index so the table order is identical for any job count.
  std::vector<std::vector<std::string>> rows(std::size(benchmarks) * 2);
  std::vector<sim::Job> work;
  std::size_t slot = 0;
  for (const char* name : benchmarks) {
    for (const bool open_page : {false, true}) {
      work.push_back(sim::Job{
          std::string(name) + (open_page ? "/open" : "/closed"),
          [&, name, open_page, slot](const sim::JobControl&) {
            sim::ArchSpec sram = sim::make_arch(sim::Architecture::kSramBaseline);
            sim::ArchSpec c1 = sim::make_arch(sim::Architecture::kC1);
            sram.gpu.dram_open_page = open_page;
            c1.gpu.dram_open_page = open_page;
            const workload::Workload w = workload::make_benchmark(name, scale);
            const sim::Metrics m_sram = sim::run_one(sram, w);
            const sim::Metrics m_c1 = sim::run_one(c1, w);
            rows[slot] = {name, open_page ? "open" : "closed",
                          TextTable::fmt(m_sram.ipc, 3), TextTable::fmt(m_c1.ipc, 3),
                          TextTable::fmt(m_c1.ipc / m_sram.ipc, 3)};
          }});
      ++slot;
    }
  }
  sim::run_jobs(std::move(work), jobs);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  std::cout << "\nExpected: open-page speeds streaming workloads at both ends, and\n"
               "the C1-over-SRAM advantage persists under either policy.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
