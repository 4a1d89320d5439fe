// Simulator-throughput microbenchmark: simulated cycles per wall-second of
// the two stepping loops — fastforward=0 (the plain per-cycle reference
// loop) vs. fastforward=1 (the event-driven loop: a wake table holding one
// deadline per SM and L2 bank, with idle-cycle skip).
//
//   ./micro_sim_throughput [scale=1.0] [reps=3] [json=BENCH_sim_throughput.json]
//
// Two workloads bracket the design space:
//   - drain-heavy: a sparse kernel (few warps, random DRAM-missing stream,
//     inflated DRAM latency) whose execution is dominated by long quiescent
//     waits — the case the event-driven loop exists for. Expect a large
//     speedup (CI requires at least 20x at scale=0.25).
//   - busy: the standard C1/bfs benchmark, where some component has work on
//     almost every cycle — measures what the scheduling bookkeeping costs
//     when there is little to skip (expect ~1.0x, i.e. no regression).
//
// Every rep of every (workload, mode) pair is also checked for identical
// simulated cycle and instruction counts — the loops must not change
// results.
// Output: a human-readable table plus a machine-readable JSON file for CI
// trend tracking.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "sim/arch.hpp"
#include "sim/runner.hpp"
#include "workload/benchmarks.hpp"

namespace {

using namespace sttgpu;

/// Few warps + uniform-random misses + slow DRAM: almost every cycle is a
/// quiescent memory wait, the regime the fast-forward targets.
workload::Workload drain_heavy_workload(double scale) {
  workload::KernelSpec k;
  k.name = "drain";
  k.grid_blocks = 4;
  k.threads_per_block = 64;  // 2 warps per block
  k.instructions_per_warp = static_cast<unsigned>(12000 * scale);
  k.mem_fraction = 0.5;
  k.store_fraction = 0.1;
  k.const_fraction = 0.0;
  k.pattern.kind = workload::PatternKind::kRandom;
  k.pattern.footprint_bytes = 256ull << 20;  // misses everywhere
  k.pattern.reuse_fraction = 0.0;
  k.pattern.wws_lines = 0;

  workload::Workload w;
  w.name = "drain-heavy";
  w.region = "synthetic";
  w.kernels.push_back(k);
  return w;
}

struct Sample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double wall_s = 0.0;
  double cycles_per_s = 0.0;
};

Sample measure(const sim::ArchSpec& spec, const workload::Workload& w, unsigned reps,
               bool fast_forward) {
  Sample best;
  for (unsigned r = 0; r < reps; ++r) {
    gpu::RunResult run;
    const auto t0 = std::chrono::steady_clock::now();
    (void)sim::run_one_detailed(spec, w, run, {.fast_forward = fast_forward});
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0) {
      best.cycles = run.cycles;
      best.instructions = run.instructions;
    }
    STTGPU_REQUIRE(run.cycles == best.cycles && run.instructions == best.instructions,
                   "micro_sim_throughput: nondeterministic cycle or instruction count");
    if (r == 0 || wall < best.wall_s) {
      best.wall_s = wall;
      best.cycles_per_s = wall > 0.0 ? static_cast<double>(run.cycles) / wall : 0.0;
    }
  }
  return best;
}

struct Row {
  std::string workload;
  Sample off;
  Sample on;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const double scale = cfg.get_double("scale", 1.0);
  const unsigned reps = static_cast<unsigned>(cfg.get_int("reps", 3));
  const std::string json_path = cfg.get_string("json", "BENCH_sim_throughput.json");

  struct Case {
    std::string name;
    workload::Workload w;
    sim::ArchSpec spec;
  };
  std::vector<Case> cases;
  {
    Case drain;
    drain.name = "drain-heavy";
    drain.w = drain_heavy_workload(scale);
    drain.spec = sim::make_arch(sim::Architecture::kC1);
    drain.spec.gpu.dram_latency = 2000;  // stretch the quiescent gaps
    cases.push_back(std::move(drain));

    Case busy;
    busy.name = "busy(C1/bfs)";
    busy.w = workload::make_benchmark("bfs", 0.2 * scale);
    busy.spec = sim::make_arch(sim::Architecture::kC1);
    cases.push_back(std::move(busy));
  }

  std::vector<Row> rows;
  for (Case& c : cases) {
    Row row;
    row.workload = c.name;
    row.off = measure(c.spec, c.w, reps, /*fast_forward=*/false);
    row.on = measure(c.spec, c.w, reps, /*fast_forward=*/true);
    STTGPU_REQUIRE(row.on.cycles == row.off.cycles && row.on.instructions == row.off.instructions,
                   "micro_sim_throughput: fastforward changed results on " + c.name);
    row.speedup = row.off.wall_s > 0.0 ? row.off.wall_s / row.on.wall_s : 0.0;
    rows.push_back(row);
  }

  std::cout << "Simulator throughput (simulated cycles per wall-second, best of " << reps
            << ")\n\n";
  TextTable table({"workload", "sim cycles", "ff=0 Mcyc/s", "ff=1 Mcyc/s", "speedup"});
  for (const Row& r : rows) {
    table.add_row({r.workload, std::to_string(r.off.cycles),
                   TextTable::fmt(r.off.cycles_per_s * 1e-6, 2),
                   TextTable::fmt(r.on.cycles_per_s * 1e-6, 2),
                   TextTable::fmt(r.speedup, 2)});
  }
  table.print(std::cout);

  std::ofstream out(json_path);
  STTGPU_REQUIRE(static_cast<bool>(out), "cannot open " + json_path);
  JsonWriter w(out);
  w.begin_object();
  w.key("bench").value("sim_throughput");
  w.key("scale").value(scale);
  w.key("reps").value(reps);
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.key("workload").value(r.workload);
    w.key("sim_cycles").value(r.off.cycles);
    w.key("ff0_cycles_per_s").value(r.off.cycles_per_s);
    w.key("ff1_cycles_per_s").value(r.on.cycles_per_s);
    w.key("speedup").value(r.speedup);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
