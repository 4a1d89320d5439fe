// "Same results" as tests.
//
// Golden: a cold scale-0.5 Fig. 8 matrix must export a CSV byte-identical to
// the checked-in fig8_cache.csv. The header check alone (the config
// fingerprint) misses a change that moves a result without moving the
// fingerprint; this comparison does not.
//
// GoldenOutputs: the paths Fig. 8 does not take — fault injection, telemetry
// and trace export, the naive STT bank, the LRR scheduler, open-page DRAM and
// the reference loop — run as the CLI and benches run them, and every output
// file must match its checked-in copy under tests/golden/. Each command runs
// in a fresh directory with relative output names, so stdout never echoes a
// temporary path. To rewrite every golden after a change that moves results:
//
//   STTGPU_REGENERATE_GOLDENS=1 ctest --test-dir build -R GoldenOutputs
//
// and review the diff of tests/golden/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace sttgpu::sim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The first line where @p got and @p want differ, so a failure names one
/// row instead of dumping both files. Each line is shown from a little
/// before its first differing column: a JSON output is one long line.
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream g(got), w(want);
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool g_ok = static_cast<bool>(std::getline(g, gl));
    const bool w_ok = static_cast<bool>(std::getline(w, wl));
    if (!g_ok && !w_ok) return "no difference";
    if (g_ok != w_ok || gl != wl) {
      std::size_t col = 0;
      while (col < gl.size() && col < wl.size() && gl[col] == wl[col]) ++col;
      const std::size_t from = col > 40 ? col - 40 : 0;
      const auto shown = [from](bool ok, const std::string& l) -> std::string {
        if (!ok) return "<end of file>";
        return (from > 0 ? "..." : "") + l.substr(std::min(from, l.size()), 160);
      };
      return "first difference at line " + std::to_string(line) + ", column " +
             std::to_string(col + 1) + "\n  got:  " + shown(g_ok, gl) +
             "\n  want: " + shown(w_ok, wl);
    }
  }
}

std::string make_temp_dir() {
  std::string dir = std::filesystem::temp_directory_path() / "sttgpu_golden_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return dir;
}

TEST(Golden, ColdFig8MatrixMatchesTheCheckedInCsv) {
  const std::string dir = make_temp_dir();
  const std::string csv = dir + "/fig8.csv";
  run_matrix(all_architectures(), {.scale = 0.5, .cache_path = csv, .jobs = 0});
  const std::string got = slurp(csv);
  std::filesystem::remove_all(dir);

  const std::string want = slurp(std::string(STTGPU_SOURCE_DIR) + "/fig8_cache.csv");
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(got == want) << first_difference(got, want);
}

/// One file a command writes ("stdout" is its console output) and the
/// golden under tests/golden/ it must match.
struct Output {
  const char* produced;
  const char* golden;
};

/// Runs `exe args` in a fresh directory and compares (or, with
/// STTGPU_REGENERATE_GOLDENS=1, rewrites) each of @p outputs.
void check_outputs(const std::string& exe, const std::string& args,
                   const std::vector<Output>& outputs) {
  const std::string dir = make_temp_dir();
  const std::string cmd = "cd '" + dir + "' && '" + exe + "' " + args + " > stdout 2> stderr";
  const int rc = std::system(cmd.c_str());
  std::vector<std::string> got;
  for (const Output& o : outputs) got.push_back(slurp(dir + "/" + o.produced));
  const std::string stderr_text = slurp(dir + "/stderr");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(rc, 0) << cmd << "\n" << stderr_text;

  const char* regen = std::getenv("STTGPU_REGENERATE_GOLDENS");
  const bool regenerate = regen != nullptr && std::string(regen) == "1";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const std::string path =
        std::string(STTGPU_SOURCE_DIR) + "/tests/golden/" + outputs[i].golden;
    if (regenerate) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(static_cast<bool>(out << got[i])) << "cannot write " << path;
      continue;
    }
    const std::string want = slurp(path);
    ASSERT_FALSE(want.empty()) << "missing golden " << path;
    EXPECT_TRUE(got[i] == want) << outputs[i].golden << ": " << first_difference(got[i], want);
  }
}

TEST(GoldenOutputs, FaultTelemetryRunOnC1) {
  check_outputs(STTGPU_CLI,
                "run arch=C1 benchmark=bfs scale=0.05 faults=1 fault_accel=20 telemetry=1 "
                "interval=2000 json=run.json telemetry_csv=telemetry.csv trace_out=trace.json",
                {{"stdout", "c1_bfs_faults_telemetry.stdout"},
                 {"run.json", "c1_bfs_faults_telemetry.json"},
                 {"telemetry.csv", "c1_bfs_faults_telemetry.telemetry.csv"},
                 {"trace.json", "c1_bfs_faults_telemetry.trace.json"}});
}

TEST(GoldenOutputs, FaultRunOnTheSttBaseline) {
  check_outputs(STTGPU_CLI,
                "run arch=stt-base benchmark=histo scale=0.05 faults=1 fault_accel=20 "
                "json=run.json",
                {{"stdout", "sttbase_histo_faults.stdout"},
                 {"run.json", "sttbase_histo_faults.json"}});
}

TEST(GoldenOutputs, SchedulerAblation) {
  check_outputs(STTGPU_ABL_SCHEDULER, "scale=0.2", {{"stdout", "abl_scheduler.stdout"}});
}

TEST(GoldenOutputs, DramPageAblation) {
  check_outputs(STTGPU_ABL_DRAM_PAGE, "scale=0.2", {{"stdout", "abl_dram_page.stdout"}});
}

TEST(GoldenOutputs, ReferenceLoopMatrix) {
  check_outputs(STTGPU_CLI, "matrix scale=0.1 fastforward=0 cache=matrix.csv",
                {{"matrix.csv", "matrix_ff0.csv"}});
}

}  // namespace
}  // namespace sttgpu::sim
