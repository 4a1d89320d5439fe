// Ablation (related work, the paper's ref [17]): early write termination.
//
// Zhou et al. (ICCAD'09) abort STT-RAM bit-writes whose target cell already
// holds the value, scaling write energy by the flipped-bit fraction. The
// paper's own design instead avoids expensive writes architecturally; this
// bench shows the two techniques compose: EWT on top of the two-part cache,
// and EWT as an alternative fix for the naive STT baseline.
//
//   ./abl_ewt [scale=0.4] [jobs=N]
#include <iostream>
#include <iterator>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"
#include "sttl2/factories.hpp"

namespace {

using namespace sttgpu;

sim::Metrics run_arch(sim::Architecture arch, const std::string& benchmark, double scale,
                      bool ewt) {
  sim::ArchSpec spec = sim::make_arch(arch);
  if (spec.two_part) {
    spec.two_part_cfg.early_write_termination = ewt;
  } else {
    spec.uniform.early_write_termination = ewt;
  }
  const workload::Workload w = workload::make_benchmark(benchmark, scale);
  return sim::run_one(spec, w);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const double scale = cfg.get_double("scale", 0.4);
  const unsigned jobs = sim::resolve_jobs(cfg.get_int("jobs", 0));
  const char* benchmarks[] = {"bfs", "lbm", "histo", "kmeans", "nw"};
  const sim::Architecture archs[] = {sim::Architecture::kSttBaseline,
                                     sim::Architecture::kC1};

  std::cout << "Ablation: early write termination (flip fraction 0.35)\n\n";
  TextTable table({"benchmark", "arch", "dyn W", "dyn W + EWT", "saving"});

  // One job per table row (it runs the plain and the EWT variant); rows are
  // filled by index so the output order is identical for any job count.
  std::vector<std::vector<std::string>> rows(std::size(benchmarks) * std::size(archs));
  std::vector<sim::Job> work;
  std::size_t slot = 0;
  for (const char* name : benchmarks) {
    for (const sim::Architecture arch : archs) {
      work.push_back(sim::Job{
          std::string(sim::to_string(arch)) + "/" + name,
          [&, name, arch, slot](const sim::JobControl&) {
            const sim::Metrics plain = run_arch(arch, name, scale, false);
            const sim::Metrics ewt = run_arch(arch, name, scale, true);
            rows[slot] = {name, sim::to_string(arch), TextTable::fmt(plain.dynamic_w, 3),
                          TextTable::fmt(ewt.dynamic_w, 3),
                          TextTable::fmt_percent(1.0 - ewt.dynamic_w / plain.dynamic_w)};
          }});
      ++slot;
    }
  }
  sim::run_jobs(std::move(work), jobs);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(std::cout);

  std::cout << "\nExpected: EWT saves the most on the write-energy-dominated naive\n"
               "STT baseline; on the two-part cache the architectural fix has\n"
               "already removed most expensive writes, so EWT's margin shrinks.\n";
  return 0;
}
