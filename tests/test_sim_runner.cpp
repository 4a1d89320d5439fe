#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/probe.hpp"
#include "store/csv_format.hpp"
#include "store/result_store.hpp"

namespace sttgpu::sim {
namespace {

constexpr double kTinyScale = 0.04;

// Removes a test cache CSV together with its store sidecars; stale sidecars
// from a previous run would otherwise let the matrix resume from the store
// and invalidate cold-cache assumptions.
void remove_cache_files(const std::string& csv_path) {
  std::remove(csv_path.c_str());
  const std::string store = store::ResultStore::derive_path(csv_path);
  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());
  std::remove(store::ResultStore::quarantine_path_for(store).c_str());
}

Metrics sample_metrics() {
  Metrics m;
  m.arch = "C1";
  m.benchmark = "bfs";
  m.ipc = 1.25;
  m.cycles = 123456;
  m.dynamic_w = 0.5;
  m.leakage_w = 0.1;
  m.total_w = 0.6;
  m.l2_write_share = 0.4;
  m.l2_miss_rate = 0.2;
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dynamic_w, b.dynamic_w);
  EXPECT_EQ(a.leakage_w, b.leakage_w);
  EXPECT_EQ(a.total_w, b.total_w);
  EXPECT_EQ(a.l2_write_share, b.l2_write_share);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
}

TEST(Runner, RunOneProducesSaneMetrics) {
  const Metrics m = run_one(Architecture::kSramBaseline, "hotspot", {.scale = kTinyScale});
  EXPECT_EQ(m.arch, "sram");
  EXPECT_EQ(m.benchmark, "hotspot");
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.cycles, 0u);
  EXPECT_GT(m.dynamic_w, 0.0);
  EXPECT_GT(m.leakage_w, 0.0);
  EXPECT_NEAR(m.total_w, m.dynamic_w + m.leakage_w, 1e-12);
  EXPECT_GE(m.l2_write_share, 0.0);
  EXPECT_LE(m.l2_write_share, 1.0);
}

TEST(Runner, DeterministicAcrossCalls) {
  const Metrics a = run_one(Architecture::kC1, "kmeans", {.scale = kTinyScale});
  const Metrics b = run_one(Architecture::kC1, "kmeans", {.scale = kTinyScale});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.dynamic_w, b.dynamic_w);
}

TEST(Runner, CacheRoundTrip) {
  const std::string path = "test_runner_cache.csv";
  remove_cache_files(path);
  Metrics m = sample_metrics();
  m.ipc = 1.0 / 3.0;  // needs all 17 digits to round-trip exactly
  save_cache(path, 0.5, {m});
  const auto cache = load_cache(path, 0.5);
  ASSERT_EQ(cache.size(), 1u);
  expect_identical(cache.at({"C1", "bfs"}), m);
  remove_cache_files(path);
}

TEST(Runner, LoadCacheMissingFileIsEmpty) {
  EXPECT_TRUE(load_cache("nonexistent_file_xyz.csv", 0.5).empty());
}

TEST(Runner, CacheScaleMismatchIsDiscarded) {
  const std::string path = "test_runner_cache_scale.csv";
  remove_cache_files(path);
  save_cache(path, 0.5, {sample_metrics()});
  EXPECT_EQ(load_cache(path, 0.5).size(), 1u);
  EXPECT_TRUE(load_cache(path, 1.0).empty());
  EXPECT_TRUE(load_cache(path, 0.25).empty());
  remove_cache_files(path);
}

TEST(Runner, CacheConfigFingerprintMismatchIsDiscarded) {
  const std::string path = "test_runner_cache_fp.csv";
  remove_cache_files(path);
  save_cache(path, 0.5, {sample_metrics()});
  // Tamper with the recorded fingerprint: the whole file must be ignored.
  std::string text = slurp(path);
  const auto pos = text.find("config=");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 7] = text[pos + 7] == '0' ? '1' : '0';
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_TRUE(load_cache(path, 0.5).empty());
  remove_cache_files(path);
}

TEST(Runner, CacheV1FormatIsDiscardedNotMisparsed) {
  const std::string path = "test_runner_cache_v1.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "arch,benchmark,ipc,cycles,dynamic_w,leakage_w,total_w,write_share,miss_rate\n"
        << "C1,bfs,1.25,123456,0.5,0.1,0.6,0.4,0.2\n";
  }
  EXPECT_TRUE(load_cache(path, 0.5).empty());
  remove_cache_files(path);
}

TEST(Runner, CacheMalformedRowsAreSkippedNotCorrupted) {
  const std::string path = "test_runner_cache_bad.csv";
  remove_cache_files(path);
  save_cache(path, 0.5, {sample_metrics()});
  {
    // Append a truncated row (the old parser would have reused the previous
    // cell for the missing fields), a non-numeric row, and an over-long row.
    std::ofstream out(path, std::ios::app);
    out << "C2,bfs,2.5,99\n"
        << "C3,bfs,not_a_number,1,2,3,4,5,6\n"
        << "C2,kmeans,1,2,3,4,5,6,7,8\n";
  }
  const auto cache = load_cache(path, 0.5);
  ASSERT_EQ(cache.size(), 1u);  // only the well-formed row survives
  expect_identical(cache.at({"C1", "bfs"}), sample_metrics());
  remove_cache_files(path);
}

TEST(Runner, SaveCacheUnwritablePathThrows) {
  EXPECT_THROW(save_cache("no_such_dir_xyz/cache.csv", 0.5, {sample_metrics()}), SimError);
}

TEST(Runner, MatrixParallelIsByteIdenticalToSequential) {
  const std::vector<Architecture> archs{Architecture::kSramBaseline, Architecture::kC1};
  const std::vector<std::string> benchmarks{"bfs", "kmeans", "hotspot"};
  const auto seq = run_matrix(archs, benchmarks, {.scale = kTinyScale, .jobs = 1});
  const auto par = run_matrix(archs, benchmarks, {.scale = kTinyScale, .jobs = 4});
  ASSERT_EQ(seq.size(), 6u);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) expect_identical(seq[i], par[i]);
}

TEST(Runner, MatrixPersistsWriteThroughAndResumes) {
  const std::string path = "test_runner_matrix_resume.csv";
  remove_cache_files(path);
  const std::vector<Architecture> archs{Architecture::kSramBaseline};
  const std::vector<std::string> benchmarks{"bfs", "kmeans"};
  const auto fresh = run_matrix(archs, benchmarks, {.scale = kTinyScale, .cache_path = path, .jobs = 1});
  ASSERT_EQ(fresh.size(), 2u);
  ASSERT_EQ(load_cache(path, kTinyScale).size(), 2u);

  // Drop the last cached row (as if the sweep crashed mid-matrix): the
  // rerun must reuse the surviving row and re-simulate only the missing
  // one, ending with identical results.
  std::string text = slurp(path);
  text.erase(text.rfind("sram,", text.size() - 2));
  std::ofstream(path, std::ios::trunc) << text;
  ASSERT_EQ(load_cache(path, kTinyScale).size(), 1u);

  const auto resumed = run_matrix(archs, benchmarks, {.scale = kTinyScale, .cache_path = path, .jobs = 1});
  ASSERT_EQ(resumed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) expect_identical(fresh[i], resumed[i]);
  EXPECT_EQ(load_cache(path, kTinyScale).size(), 2u);
  remove_cache_files(path);
}

TEST(Runner, MatrixUsesCachedRowsVerbatim) {
  const std::string path = "test_runner_matrix_cached.csv";
  remove_cache_files(path);
  Metrics planted = sample_metrics();
  planted.arch = "sram";
  planted.benchmark = "bfs";
  planted.ipc = 42.0;  // impossible value: proves the cache was used
  save_cache(path, kTinyScale, {planted});
  const auto rows = run_matrix({Architecture::kSramBaseline}, {std::string("bfs")},
                               {.scale = kTinyScale, .cache_path = path, .jobs = 1});
  ASSERT_EQ(rows.size(), 1u);
  expect_identical(rows[0], planted);
  remove_cache_files(path);
}

TEST(Runner, WarmMatrixKeepsAFreshCsvAndReExportsAStaleOne) {
  const std::string path = "test_runner_matrix_fresh.csv";
  remove_cache_files(path);
  const std::vector<Architecture> archs{Architecture::kSramBaseline, Architecture::kC1};
  const std::vector<std::string> benchmarks{"bfs", "kmeans"};
  const RunOptions opts{.scale = kTinyScale, .cache_path = path, .jobs = 1};
  const auto inode = [&path] {
    struct stat st {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return st.st_ino;
  };
  const auto applied_records = [&path] {
    return store::ResultStore(store::ResultStore::derive_path(path)).stats().applied_records;
  };
  run_matrix(archs, benchmarks, opts);
  const std::string cold = slurp(path);
  ASSERT_EQ(applied_records(), 4u);

  // A current CSV is left alone: not even re-exported.
  const auto cold_inode = inode();
  run_matrix(archs, benchmarks, opts);
  EXPECT_EQ(inode(), cold_inode);
  EXPECT_EQ(applied_records(), 4u);

  // A stale one is re-exported from the store, with nothing simulated.
  const std::vector<Metrics> exported =
      store::read_csv_v2(path, kTinyScale, config_fingerprint(), nullptr);
  ASSERT_EQ(exported.size(), 4u);
  std::vector<Metrics> one_ulp_off = exported;
  one_ulp_off[1].total_w = std::nextafter(one_ulp_off[1].total_w, INFINITY);
  std::vector<Metrics> one_row_short = exported;
  one_row_short.erase(one_row_short.begin() + 2);
  for (const std::vector<Metrics>& stale : {one_ulp_off, one_row_short}) {
    save_cache(path, kTinyScale, stale);
    ASSERT_NE(slurp(path), cold);
    run_matrix(archs, benchmarks, opts);
    EXPECT_EQ(slurp(path), cold);
    EXPECT_EQ(applied_records(), 4u);
  }
  remove_cache_files(path);
}

TEST(Runner, ConfigFingerprintIsStable) {
  EXPECT_EQ(config_fingerprint(), config_fingerprint());
  EXPECT_NE(config_fingerprint(), 0u);
}

TEST(Runner, ByBenchmarkFilters) {
  Metrics a, b;
  a.arch = "sram";
  a.benchmark = "bfs";
  b.arch = "C1";
  b.benchmark = "bfs";
  const auto idx = by_benchmark({a, b}, "C1");
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.at("bfs").arch, "C1");
}

TEST(Probe, TwoPartProbeCollectsInternals) {
  const TwoPartProbe p = run_two_part("kmeans", c1_bank_config(), kTinyScale);
  EXPECT_GT(p.counters.get("w_demand"), 0u);
  EXPECT_GE(p.lr_write_utilization, 0.0);
  EXPECT_LE(p.lr_write_utilization, 1.0);
  EXPECT_EQ(p.lr_interval_fractions.size(), 6u);
  double sum = 0.0;
  for (const double f : p.lr_interval_fractions) sum += f;
  if (p.lr_intervals > 0) {
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_GE(p.hr_within_40ms, 0.0);
  EXPECT_LE(p.hr_within_40ms, 1.0);
}

TEST(Probe, UniformProbeCollectsWriteVariation) {
  const UniformProbe p = run_uniform("bfs", sram_bank_config(), kTinyScale);
  EXPECT_GT(p.metrics.ipc, 0.0);
  EXPECT_GE(p.inter_set_cov, 0.0);
  EXPECT_GE(p.intra_set_cov, 0.0);
  EXPECT_GT(p.metrics.l2_write_share, 0.0);
}

/// Each value column of @p m as 17-digit text, keyed by its CSV name.
std::map<std::string, std::string> value_columns(const Metrics& m) {
  std::map<std::string, std::string> out;
  store::for_each_value(m, [&out](const char* column, const char*, const auto& v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    out[column] = os.str();
  });
  return out;
}

TEST(Probe, UniformProbeRowMatchesRunOne) {
  // Same GpuConfig and bank config as the SRAM baseline, so the whole row,
  // power columns included, must be run_one's.
  const UniformProbe p = run_uniform("bfs", sram_bank_config(), 0.05);
  const Metrics direct = run_one(Architecture::kSramBaseline, "bfs", {.scale = 0.05});
  EXPECT_EQ(value_columns(p.metrics), value_columns(direct));
}

TEST(Probe, DefaultConfigsMatchArchRegistry) {
  const auto c1 = c1_bank_config();
  EXPECT_EQ(c1.hr_bytes, 224u * 1024);
  EXPECT_EQ(c1.lr_bytes, 32u * 1024);
  const auto sram = sram_bank_config();
  EXPECT_EQ(sram.capacity_bytes, 64u * 1024);
}

}  // namespace
}  // namespace sttgpu::sim
