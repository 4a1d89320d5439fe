#include "store/csv_format.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace sttgpu::store {
namespace {

constexpr std::uint64_t kFp = 0xd180d94558f98587ull;

ResultRow sample_row() {
  ResultRow r;
  r.arch = "C1";
  r.benchmark = "bfs";
  r.ipc = 1.0 / 3.0;
  r.cycles = 123456;
  r.dynamic_w = 0.5;
  r.leakage_w = 0.1;
  r.total_w = 0.6;
  r.l2_write_share = 0.4;
  r.l2_miss_rate = 0.2;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct LogCapture {
  std::vector<std::string> lines;
  LogFn fn() {
    return [this](const std::string& l) { lines.push_back(l); };
  }
};

TEST(StoreCsv, WriteReadRoundTripIsBitExact) {
  const std::string path = "test_store_csv_roundtrip.csv";
  std::remove(path.c_str());
  write_csv_v2(path, 0.5, kFp, {sample_row()});
  const std::string first = slurp(path);
  LogCapture log;
  const std::vector<ResultRow> rows = read_csv_v2(path, 0.5, kFp, log.fn());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].ipc, sample_row().ipc);
  EXPECT_EQ(rows[0].cycles, sample_row().cycles);
  EXPECT_TRUE(log.lines.empty());
  // Re-exporting the loaded rows regenerates the byte-identical file — the
  // property the checked-in fig8_cache.csv depends on.
  write_csv_v2(path, 0.5, kFp, rows);
  EXPECT_EQ(slurp(path), first);
  std::remove(path.c_str());
}

TEST(StoreCsv, EmptyOrWhitespaceFileIsAColdCacheWithoutWarnings) {
  const std::string path = "test_store_csv_empty.csv";
  for (const std::string& content : {std::string(), std::string("\n \t\n  \n")}) {
    std::ofstream(path, std::ios::trunc) << content;
    LogCapture log;
    EXPECT_TRUE(read_csv_v2(path, 0.5, kFp, log.fn()).empty());
    EXPECT_TRUE(log.lines.empty()) << log.lines.front();
  }
  std::remove(path.c_str());
}

TEST(StoreCsv, MissingFileIsAColdCacheWithoutWarnings) {
  LogCapture log;
  EXPECT_TRUE(read_csv_v2("no_such_csv_xyz.csv", 0.5, kFp, log.fn()).empty());
  EXPECT_TRUE(log.lines.empty());
}

TEST(StoreCsv, ScaleOrFingerprintMismatchDiscardsWithOneWarning) {
  const std::string path = "test_store_csv_mismatch.csv";
  std::remove(path.c_str());
  write_csv_v2(path, 0.5, kFp, {sample_row()});
  {
    LogCapture log;
    EXPECT_TRUE(read_csv_v2(path, 1.0, kFp, log.fn()).empty());
    EXPECT_EQ(log.lines.size(), 1u);
  }
  {
    LogCapture log;
    EXPECT_TRUE(read_csv_v2(path, 0.5, kFp + 1, log.fn()).empty());
    EXPECT_EQ(log.lines.size(), 1u);
  }
  std::remove(path.c_str());
}

TEST(StoreCsv, MalformedRowsAreSkippedAndSummarized) {
  const std::string path = "test_store_csv_badrows.csv";
  std::remove(path.c_str());
  write_csv_v2(path, 0.5, kFp, {sample_row()});
  {
    std::ofstream out(path, std::ios::app);
    out << "C2,bfs,2.5,99\n"                  // short row
        << "C3,bfs,nan?,1,2,3,4,5,6\n";       // non-numeric cell
  }
  LogCapture log;
  const std::vector<ResultRow> rows = read_csv_v2(path, 0.5, kFp, log.fn());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].arch, "C1");
  EXPECT_FALSE(log.lines.empty());
  std::remove(path.c_str());
}

TEST(StoreCsv, CheckedInFig8CacheRoundTripsByteForByte) {
  const std::string checked_in = std::string(STTGPU_SOURCE_DIR) + "/fig8_cache.csv";
  const std::uint64_t fp = sim::config_fingerprint();
  LogCapture log;
  const std::vector<ResultRow> rows = read_csv_v2(checked_in, 0.5, fp, log.fn());
  // The whole matrix (80 rows) is current: the header's scale and config
  // fingerprint match this simulator, and no row is malformed.
  EXPECT_TRUE(log.lines.empty()) << log.lines.front();
  ASSERT_EQ(rows.size(), sim::all_architectures().size() * workload::benchmark_names().size());

  const std::string path = "test_store_csv_fig8.csv";
  write_csv_v2(path, 0.5, fp, rows);
  EXPECT_EQ(slurp(path), slurp(checked_in));
  std::remove(path.c_str());

  for (const ResultRow& r : rows) {
    const std::string payload = encode_put(fp, 0.5, r);
    const auto dec = decode_put(payload);
    ASSERT_TRUE(dec.has_value()) << payload;
    EXPECT_EQ(encode_put(dec->fingerprint, dec->scale17, dec->row), payload);
  }
}

/// The data line write_csv_v2 writes for @p row (the file's third line), and
/// the row read_csv_v2 reads back from that file.
std::pair<std::string, ResultRow> csv_round_trip(const ResultRow& row) {
  const std::string path = "test_store_csv_column.csv";
  write_csv_v2(path, 0.5, kFp, {row});
  std::istringstream text(slurp(path));
  std::string line;
  for (int i = 0; i < 3; ++i) std::getline(text, line);
  const std::vector<ResultRow> back = read_csv_v2(path, 0.5, kFp, nullptr);
  std::remove(path.c_str());
  return {line, back.size() == 1 ? back[0] : ResultRow{}};
}

std::string matrix_json(const ResultRow& row) {
  std::ostringstream os;
  sim::write_matrix_json(os, {row});
  return os.str();
}

TEST(StoreCsv, EveryValueColumnReachesEveryEncoding) {
  const ResultRow base = sample_row();
  const std::string base_put = encode_put(kFp, 0.5, base);
  const std::string base_csv = csv_round_trip(base).first;
  const std::string base_json = matrix_json(base);
  // sample_row() names each field, so these pin which column and which
  // JSON key carries which field.
  EXPECT_EQ(base_csv,
            "C1,bfs,0.33333333333333331,123456,0.5,0.10000000000000001,"
            "0.59999999999999998,0.40000000000000002,0.20000000000000001");
  EXPECT_EQ(base_put,
            "put d180d94558f98587 0.5 C1 bfs 0.33333333333333331 123456 0.5 "
            "0.10000000000000001 0.59999999999999998 0.40000000000000002 "
            "0.20000000000000001");
  EXPECT_EQ(base_json,
            "{\"runs\":[{\"arch\":\"C1\",\"benchmark\":\"bfs\",\"ipc\":0.333333,"
            "\"cycles\":123456,\"dynamic_w\":0.5,\"leakage_w\":0.1,\"total_w\":0.6,"
            "\"l2_write_share\":0.4,\"l2_miss_rate\":0.2}]}");
  std::size_t columns = 0;
  for_each_value(base, [&columns](const char*, const char*, const auto&) { ++columns; });
  ASSERT_EQ(columns, 7u);

  for (std::size_t k = 0; k < columns; ++k) {
    ResultRow changed = base;
    std::string column;
    std::size_t i = 0;
    for_each_value(changed, [&](const char* name, const char*, auto& v) {
      if (i++ != k) return;
      v = v * 2 + 1;
      column = name;
    });
    SCOPED_TRACE(column);

    // The 17-digit payload is exact, so equal payloads mean equal rows.
    const std::string put = encode_put(kFp, 0.5, changed);
    EXPECT_NE(put, base_put);
    const auto dec = decode_put(put);
    ASSERT_TRUE(dec.has_value()) << put;
    EXPECT_EQ(encode_put(kFp, 0.5, dec->row), put);

    const auto [csv_line, csv_back] = csv_round_trip(changed);
    EXPECT_NE(csv_line, base_csv);
    EXPECT_EQ(encode_put(kFp, 0.5, csv_back), put);

    EXPECT_NE(matrix_json(changed), base_json);
  }
}

// --- atomic_write_file failure semantics ------------------------------------

TEST(AtomicFile, UnwritableDirectoryThrowsWithErrnoContext) {
  try {
    atomic_write_file("no_such_dir_xyz/file.txt", [](std::ostream& os) { os << "x"; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    // The message must carry the OS-level cause, not just "cannot write".
    EXPECT_NE(what.find('('), std::string::npos) << what;
    EXPECT_NE(what.find(')'), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_dir_xyz"), std::string::npos) << what;
  }
}

TEST(AtomicFile, FailedReplaceUnlinksTheTempFile) {
  // Renaming a file over a non-empty directory fails after the temp file
  // was fully written — exactly the path that used to leak "<path>.tmp".
  const std::string dir = "test_atomic_target_dir";
  ::mkdir(dir.c_str(), 0755);
  std::ofstream(dir + "/occupant") << "x";
  EXPECT_THROW(atomic_write_file(dir, [](std::ostream& os) { os << "payload"; }),
               SimError);
  EXPECT_FALSE(std::ifstream(dir + ".tmp").good()) << "temp file leaked";
  std::remove((dir + "/occupant").c_str());
  ::rmdir(dir.c_str());
}

TEST(AtomicFile, SuccessfulWriteLeavesNoTempBehind) {
  const std::string path = "test_atomic_ok.txt";
  atomic_write_file(path, [](std::ostream& os) { os << "hello"; });
  EXPECT_EQ(slurp(path), "hello");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttgpu::store
