#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "store/wal.hpp"

namespace sttgpu::store {
namespace {

constexpr std::uint64_t kFp = 0xd180d94558f98587ull;
constexpr double kScale = 0.04;

void remove_store_files(const std::string& store_path) {
  std::remove(store_path.c_str());
  std::remove((store_path + ".lock").c_str());
  std::remove(ResultStore::quarantine_path_for(store_path).c_str());
}

ResultRow row(const std::string& arch, const std::string& bench, double ipc) {
  ResultRow r;
  r.arch = arch;
  r.benchmark = bench;
  r.ipc = ipc;
  r.cycles = 1000 + static_cast<std::uint64_t>(ipc * 100);
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

TEST(ResultStoreTest, PutGetRoundTripAndReopen) {
  const std::string path = "test_store_rs_roundtrip.store";
  remove_store_files(path);
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.get(kFp, kScale, "C1", "bfs").has_value());
    store.put(kFp, kScale, row("C1", "bfs", 1.25));
    store.put(kFp, kScale, row("C2", "kmeans", 2.5));
    ASSERT_TRUE(store.get(kFp, kScale, "C1", "bfs").has_value());
    EXPECT_EQ(store.get(kFp, kScale, "C1", "bfs")->ipc, 1.25);
    // A different fingerprint or scale is a different group entirely.
    EXPECT_FALSE(store.get(kFp + 1, kScale, "C1", "bfs").has_value());
    EXPECT_FALSE(store.get(kFp, 0.5, "C1", "bfs").has_value());
  }
  ResultStore reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
  ASSERT_TRUE(reopened.get(kFp, kScale, "C2", "kmeans").has_value());
  EXPECT_EQ(reopened.get(kFp, kScale, "C2", "kmeans")->ipc, 2.5);
  const StoreStats st = reopened.stats();
  EXPECT_EQ(st.applied_records, 2u);
  EXPECT_EQ(st.dead_records, 0u);
  EXPECT_EQ(st.groups, 1u);
  EXPECT_TRUE(ResultStore::fsck(path).healthy());
  remove_store_files(path);
}

TEST(ResultStoreTest, DerivedPaths) {
  EXPECT_EQ(ResultStore::derive_path("fig8_cache.csv"), "fig8_cache.store");
  EXPECT_EQ(ResultStore::derive_path("dir/a.csv"), "dir/a.store");
  EXPECT_EQ(ResultStore::derive_path("results.bin"), "results.bin.store");
  EXPECT_EQ(ResultStore::quarantine_path_for("a.store"), "a.store.quarantine");
}

TEST(ResultStoreTest, LastWriterWinsAndDeadRecordsAreCounted) {
  const std::string path = "test_store_rs_lww.store";
  remove_store_files(path);
  ResultStore store(path);
  store.put(kFp, kScale, row("C1", "bfs", 1.0));
  store.put(kFp, kScale, row("C1", "bfs", 2.0));
  store.put(kFp, kScale, row("C1", "bfs", 3.0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(kFp, kScale, "C1", "bfs")->ipc, 3.0);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.applied_records, 3u);
  EXPECT_EQ(st.dead_records, 2u);
  remove_store_files(path);
}

TEST(ResultStoreTest, EmptyFileIsAColdStore) {
  // Touching the path (0 bytes) must read as cold, not as a framing error —
  // the same grace the CSV layer gives an empty cache file.
  const std::string path = "test_store_rs_empty.store";
  remove_store_files(path);
  std::ofstream(path, std::ios::trunc).flush();
  std::vector<std::string> log_lines;
  StoreOptions opts;
  opts.log = [&log_lines](const std::string& l) { log_lines.push_back(l); };
  ResultStore store(path, opts);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(log_lines.empty()) << log_lines.front();
  EXPECT_TRUE(ResultStore::fsck(path).healthy());
  remove_store_files(path);
}

TEST(ResultStoreTest, TornTailIsTruncatedToLastCompleteRecord) {
  const std::string path = "test_store_rs_torn.store";
  remove_store_files(path);
  std::uint64_t clean_size = 0;
  {
    ResultStore store(path);
    store.put(kFp, kScale, row("C1", "bfs", 1.25));
    store.put(kFp, kScale, row("C2", "kmeans", 2.5));
    clean_size = store.stats().file_bytes;
  }
  {
    // Simulate a crash mid-append: a partial frame at the tail.
    const std::string frame = frame_record("put deadbeef 0.5 C3 lud 1 2 3 4 5 6 7");
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << frame.substr(0, frame.size() - 5);
  }
  std::vector<std::string> log_lines;
  StoreOptions opts;
  opts.log = [&log_lines](const std::string& l) { log_lines.push_back(l); };
  ResultStore store(path, opts);
  EXPECT_EQ(store.size(), 2u);
  const StoreStats st = store.stats();
  EXPECT_EQ(st.file_bytes, clean_size);  // tail gone
  EXPECT_GT(st.repaired_torn_bytes, 0u);
  EXPECT_EQ(st.quarantine_incidents, 0u);  // torn != corrupt
  ASSERT_EQ(log_lines.size(), 1u);
  EXPECT_NE(log_lines[0].find("torn tail"), std::string::npos) << log_lines[0];
  remove_store_files(path);
}

TEST(ResultStoreTest, CorruptionIsQuarantinedAndNeighboursSurvive) {
  const std::string path = "test_store_rs_corrupt.store";
  remove_store_files(path);
  {
    ResultStore store(path);
    store.put(kFp, kScale, row("C1", "bfs", 1.0));
    store.put(kFp, kScale, row("C2", "kmeans", 2.0));
    store.put(kFp, kScale, row("C3", "hotspot", 3.0));
  }
  {
    // Bit rot inside the middle record's payload: its CRC no longer checks.
    std::string bytes = slurp(path);
    const std::size_t at = bytes.find("kmeans");
    ASSERT_NE(at, std::string::npos);
    bytes[at] ^= 0x40;
    std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
  }
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 2u);  // C1 and C3 survive
    EXPECT_TRUE(store.get(kFp, kScale, "C1", "bfs").has_value());
    EXPECT_FALSE(store.get(kFp, kScale, "C2", "kmeans").has_value());
    EXPECT_TRUE(store.get(kFp, kScale, "C3", "hotspot").has_value());
    const StoreStats st = store.stats();
    EXPECT_EQ(st.quarantined_new_incidents, 1u);
    EXPECT_GT(st.quarantined_new_bytes, 0u);
    EXPECT_EQ(st.quarantine_incidents, 1u);
    EXPECT_GE(st.compactions, 1u);  // the corrupt range was excised
  }
  // The sidecar records the incident; fsck stays unhealthy until a human
  // acknowledges by deleting it.
  EXPECT_FALSE(ResultStore::fsck(path).healthy());
  std::remove(ResultStore::quarantine_path_for(path).c_str());
  EXPECT_TRUE(ResultStore::fsck(path).healthy());
  // The excision is durable: a fresh open sees a clean two-row store.
  ResultStore again(path);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(again.stats().quarantined_new_incidents, 0u);
  remove_store_files(path);
}

TEST(ResultStoreTest, ExplicitCompactionDropsDeadRecords) {
  const std::string path = "test_store_rs_compact.store";
  remove_store_files(path);
  StoreOptions opts;
  opts.auto_compact = false;
  ResultStore store(path, opts);
  for (int i = 0; i < 10; ++i) store.put(kFp, kScale, row("C1", "bfs", 1.0 + i));
  store.put(kFp, kScale, row("C2", "kmeans", 42.0));
  const std::uint64_t before = store.stats().file_bytes;
  store.compact();
  const StoreStats st = store.stats();
  EXPECT_LT(st.file_bytes, before);
  EXPECT_EQ(st.applied_records, 2u);
  EXPECT_EQ(st.dead_records, 0u);
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(store.get(kFp, kScale, "C1", "bfs")->ipc, 10.0);  // last write won
  EXPECT_EQ(store.get(kFp, kScale, "C2", "kmeans")->ipc, 42.0);
  remove_store_files(path);
}

TEST(ResultStoreTest, AutoCompactionFiresWhenDeadRecordsDominate) {
  const std::string path = "test_store_rs_autocompact.store";
  remove_store_files(path);
  StoreOptions opts;
  opts.compact_min_records = 8;
  ResultStore store(path, opts);
  for (int i = 0; i < 20; ++i) store.put(kFp, kScale, row("C1", "bfs", 1.0 + i));
  const StoreStats st = store.stats();
  EXPECT_GE(st.compactions, 1u);
  EXPECT_LE(st.dead_records, 8u);  // the log never drowns in dead records
  EXPECT_EQ(store.get(kFp, kScale, "C1", "bfs")->ipc, 20.0);
  remove_store_files(path);
}

TEST(ResultStoreTest, RefreshFoldsInAnotherHandlesAppends) {
  const std::string path = "test_store_rs_refresh.store";
  remove_store_files(path);
  ResultStore reader(path);
  ResultStore writer(path);
  writer.put(kFp, kScale, row("C1", "bfs", 7.0));
  EXPECT_FALSE(reader.get(kFp, kScale, "C1", "bfs").has_value());  // snapshot
  reader.refresh();
  ASSERT_TRUE(reader.get(kFp, kScale, "C1", "bfs").has_value());
  EXPECT_EQ(reader.get(kFp, kScale, "C1", "bfs")->ipc, 7.0);
  remove_store_files(path);
}

TEST(ResultStoreTest, RefreshSurvivesAnotherHandlesCompaction) {
  const std::string path = "test_store_rs_replace.store";
  remove_store_files(path);
  StoreOptions no_auto;
  no_auto.auto_compact = false;
  ResultStore reader(path);
  ResultStore writer(path, no_auto);
  for (int i = 0; i < 5; ++i) writer.put(kFp, kScale, row("C1", "bfs", 1.0 + i));
  writer.compact();  // renames a fresh inode over the log
  writer.put(kFp, kScale, row("C2", "kmeans", 9.0));
  reader.refresh();  // must notice the replaced file, not tail the dead inode
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.get(kFp, kScale, "C1", "bfs")->ipc, 5.0);
  EXPECT_EQ(reader.get(kFp, kScale, "C2", "kmeans")->ipc, 9.0);
  remove_store_files(path);
}

TEST(ResultStoreTest, RowsForSortsByArchThenBenchmark) {
  const std::string path = "test_store_rs_rowsfor.store";
  remove_store_files(path);
  ResultStore store(path);
  store.put(kFp, kScale, row("C2", "bfs", 3.0));
  store.put(kFp, kScale, row("C1", "kmeans", 2.0));
  store.put(kFp, kScale, row("C1", "bfs", 1.0));
  store.put(kFp + 1, kScale, row("C9", "other-group", 9.0));
  const std::vector<ResultRow> rows = store.rows_for(kFp, kScale);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].arch, "C1");
  EXPECT_EQ(rows[0].benchmark, "bfs");
  EXPECT_EQ(rows[1].arch, "C1");
  EXPECT_EQ(rows[1].benchmark, "kmeans");
  EXPECT_EQ(rows[2].arch, "C2");
  EXPECT_TRUE(store.rows_for(kFp + 2, kScale).empty());
  remove_store_files(path);
}

TEST(ResultStoreTest, NewerFormatVersionIsRefusedOnOpen) {
  const std::string path = "test_store_rs_version.store";
  remove_store_files(path);
  std::ofstream(path, std::ios::trunc | std::ios::binary)
      << frame_record("meta sttgpu-store v99");
  EXPECT_THROW(ResultStore{path}, SimError);
  remove_store_files(path);
}

TEST(ResultStoreTest, PutRejectsKeyTokensThatWouldCorruptThePayload) {
  const std::string path = "test_store_rs_tokens.store";
  remove_store_files(path);
  ResultStore store(path);
  ResultRow bad = row("C 1", "bfs", 1.0);
  EXPECT_THROW(store.put(kFp, kScale, bad), SimError);
  bad = row("C1", "b\tfs", 1.0);
  EXPECT_THROW(store.put(kFp, kScale, bad), SimError);
  EXPECT_EQ(store.size(), 0u);
  remove_store_files(path);
}

TEST(ResultStoreTest, FsckOnMissingStoreReportsAbsentWithoutCreatingIt) {
  const std::string path = "test_store_rs_missing.store";
  remove_store_files(path);
  const FsckReport r = ResultStore::fsck(path);
  EXPECT_FALSE(r.present);
  EXPECT_TRUE(r.healthy());
  EXPECT_FALSE(std::ifstream(path).good());  // fsck must not create the file
  remove_store_files(path);
}

}  // namespace
}  // namespace sttgpu::store
