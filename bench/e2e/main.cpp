// End-to-end benchmark driver: runs one workload for about --seconds and
// prints its metrics, ending with one JSON line
//   {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer split instead. See README.md.
//
//   e2e_bench --workload fig8-cold|fig8-warm|sparse-drain|serve-closed
//             [--seed N] [--seconds S] [--trace 0|1] [--quick 0|1] [--out FILE]
//
// Runs from the checkout root: it reads the checked-in fig8_cache.csv and
// keeps its scratch files under .bench_build/.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

using e2e::Args;
using e2e::Report;

const std::map<std::string, Report (*)(const Args&)>& workloads() {
  static const std::map<std::string, Report (*)(const Args&)> m = {
      {"fig8-cold", &e2e::run_fig8_cold},
      {"fig8-warm", &e2e::run_fig8_warm},
      {"sparse-drain", &e2e::run_sparse_drain},
      {"serve-closed", &e2e::run_serve_closed},
  };
  return m;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
               " [--quick 0|1] [--out FILE]\nworkloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

bool flag01(const std::string& name, const std::string& v) {
  if (v != "0" && v != "1") usage(name + " takes 0 or 1, not '" + v + "'");
  return v == "1";
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stod(v);
      } else if (key == "--trace") {
        a.trace = flag01(key, v);
      } else if (key == "--quick") {
        a.quick = flag01(key, v);
      } else if (key == "--out") {
        a.out = v;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + key);
    }
  }
  if (workloads().count(a.workload) == 0) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (!std::filesystem::exists(e2e::kReferenceCsv)) {
    std::cerr << "e2e_bench: no " << e2e::kReferenceCsv
              << " here — run from the root of a full checkout\n";
    return 2;
  }
  try {
    const Report report = workloads().at(args.workload)(args);
    report.print(args);
    if (!args.out.empty()) report.write(args, args.out);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
}
