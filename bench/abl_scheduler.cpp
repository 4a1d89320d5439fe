// Ablation: warp scheduler policy (GTO vs loose round-robin) across the
// architectures. The paper uses GPGPU-Sim's default scheduling; this checks
// that the two-part cache's advantage is not a scheduling artifact.
//
//   ./abl_scheduler [scale=0.4] [jobs=N]
#include <iostream>
#include <iterator>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"scale", "jobs"});
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));
  const char* benchmarks[] = {"bfs", "kmeans", "lbm", "tpacf", "stencil", "nw"};
  const gpu::SchedulerKind scheds[] = {gpu::SchedulerKind::kGto, gpu::SchedulerKind::kLrr};

  std::cout << "Ablation: warp scheduler policy\n\n";
  TextTable table({"benchmark", "scheduler", "sram IPC", "C1 IPC", "C1 speedup"});

  // One job per (benchmark, scheduler) pair (each runs SRAM and C1); rows
  // and speedups are collected by index so output and the Gmeans are
  // identical for any job count.
  const std::size_t total = std::size(benchmarks) * std::size(scheds);
  std::vector<std::vector<std::string>> rows(total);
  std::vector<double> speedups(total, 0.0);
  std::vector<sim::Job> work;
  std::size_t slot = 0;
  for (const char* name : benchmarks) {
    for (const gpu::SchedulerKind sched : scheds) {
      const char* sched_name = sched == gpu::SchedulerKind::kGto ? "GTO" : "LRR";
      work.push_back(sim::Job{
          std::string(name) + "/" + sched_name,
          [&, name, sched, sched_name, slot](const sim::JobControl&) {
            sim::ArchSpec sram = sim::make_arch(sim::Architecture::kSramBaseline);
            sim::ArchSpec c1 = sim::make_arch(sim::Architecture::kC1);
            sram.gpu.scheduler = sched;
            c1.gpu.scheduler = sched;
            const workload::Workload w = workload::make_benchmark(name, scale);
            const sim::Metrics m_sram = sim::run_one(sram, w);
            const sim::Metrics m_c1 = sim::run_one(c1, w);
            const double speedup = m_c1.ipc / m_sram.ipc;
            speedups[slot] = speedup;
            rows[slot] = {name, sched_name, TextTable::fmt(m_sram.ipc, 3),
                          TextTable::fmt(m_c1.ipc, 3), TextTable::fmt(speedup, 3)};
          }});
      ++slot;
    }
  }
  sim::run_jobs(std::move(work), jobs);

  std::vector<double> gto_speedups, lrr_speedups;
  for (std::size_t i = 0; i < total; ++i) {
    (i % std::size(scheds) == 0 ? gto_speedups : lrr_speedups).push_back(speedups[i]);
  }
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);
  std::cout << "\nC1 speedup Gmean — GTO: " << TextTable::fmt(geometric_mean(gto_speedups), 3)
            << ", LRR: " << TextTable::fmt(geometric_mean(lrr_speedups), 3)
            << "\nExpected: the two-part cache wins under both schedulers.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
