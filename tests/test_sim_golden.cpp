// "Same results" as a test: a cold scale-0.5 Fig. 8 matrix must export a
// CSV byte-identical to the checked-in fig8_cache.csv. The header check
// alone (the config fingerprint) misses a change that moves a result without
// moving the fingerprint; this comparison does not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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
/// row instead of dumping both files.
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream g(got), w(want);
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool g_ok = static_cast<bool>(std::getline(g, gl));
    const bool w_ok = static_cast<bool>(std::getline(w, wl));
    if (!g_ok && !w_ok) return "no difference";
    if (g_ok != w_ok || gl != wl) {
      return "first difference at line " + std::to_string(line) + "\n  got:  " +
             (g_ok ? gl : "<end of file>") + "\n  want: " + (w_ok ? wl : "<end of file>");
    }
  }
}

TEST(Golden, ColdFig8MatrixMatchesTheCheckedInCsv) {
  std::string dir = std::filesystem::temp_directory_path() / "sttgpu_golden_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string csv = dir + "/fig8.csv";
  run_matrix(all_architectures(), {.scale = 0.5, .cache_path = csv, .jobs = 0});
  const std::string got = slurp(csv);
  std::filesystem::remove_all(dir);

  const std::string want = slurp(std::string(STTGPU_SOURCE_DIR) + "/fig8_cache.csv");
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(got == want) << first_difference(got, want);
}

}  // namespace
}  // namespace sttgpu::sim
