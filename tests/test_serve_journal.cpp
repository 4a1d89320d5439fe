// Unit tests of the crash-recovery submission journal (serve/journal.hpp):
// durable record/retire round trips, compaction on reopen, torn-tail and
// corrupt-frame recovery via the store's WAL discipline, and path derivation.
#include "serve/journal.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/wal.hpp"

namespace sttgpu::serve {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sttgpu_journal_XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ServeJournal, DerivePathMirrorsTheStore) {
  EXPECT_EQ(Journal::derive_path("fig8_cache.csv"), "fig8_cache.journal");
  EXPECT_EQ(Journal::derive_path("/tmp/x/cache.csv"), "/tmp/x/cache.journal");
  EXPECT_EQ(Journal::derive_path("oddname"), "oddname.journal");
}

TEST(ServeJournal, RecordedSubmissionsSurviveReopen) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  {
    Journal j(path);
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_EQ(j.max_id(), 0u);
    j.record_submission(1, R"({"archs":"C1"})");
    j.record_submission(2, R"({"archs":"C2"})");
    EXPECT_EQ(j.stats().open, 2u);
  }
  Journal j(path);
  const std::vector<Journal::Pending> pending = j.recovered();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 1u);
  EXPECT_EQ(pending[0].options_json, R"({"archs":"C1"})");
  EXPECT_EQ(pending[1].id, 2u);
  EXPECT_EQ(j.max_id(), 2u);
}

TEST(ServeJournal, DoneRetiresASubmission) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  {
    Journal j(path);
    j.record_submission(5, R"({"benchmarks":"bfs"})");
    j.record_submission(6, R"({"benchmarks":"nw"})");
    j.record_done(5);
    EXPECT_EQ(j.stats().open, 1u);
  }
  Journal j(path);
  const std::vector<Journal::Pending> pending = j.recovered();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 6u);
  // max_id covers retired ids too: id 5 and 6 must never be reissued.
  EXPECT_EQ(j.max_id(), 6u);
}

TEST(ServeJournal, ReopenCompactsRetiredPairsAway) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  std::uintmax_t busy_size = 0;
  {
    Journal j(path);
    for (std::uint64_t id = 1; id <= 20; ++id) {
      j.record_submission(id, R"({"archs":"C1"})");
      j.record_done(id);
    }
    busy_size = std::filesystem::file_size(path);
  }
  {
    Journal j(path);  // compaction pass: all 20 pairs are dead
    EXPECT_TRUE(j.recovered().empty());
  }
  EXPECT_LT(std::filesystem::file_size(path), busy_size / 4);
}

TEST(ServeJournal, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  {
    Journal j(path);
    j.record_submission(3, R"({"archs":"C3"})");
  }
  // Simulate a crash mid-append: a prefix of a valid frame at the tail.
  const std::string frame = store::frame_record("sub 4 {\"archs\":\"sram\"}");
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  Journal j(path);
  const std::vector<Journal::Pending> pending = j.recovered();
  ASSERT_EQ(pending.size(), 1u);  // the torn id-4 record is gone, id 3 intact
  EXPECT_EQ(pending[0].id, 3u);
  // The compaction rewrite dropped the torn bytes from the file itself.
  EXPECT_EQ(slurp(path).find(std::string("sram")), std::string::npos);
}

TEST(ServeJournal, CorruptFrameIsSkippedNotFatal) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  {
    Journal j(path);
    j.record_submission(7, R"({"archs":"C1"})");
  }
  {
    // Flip a payload byte inside the last frame: CRC mismatch, not torn.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);
    f.put('~');
  }
  Journal j(path);
  EXPECT_TRUE(j.recovered().empty());  // the damaged record is dropped...
  j.record_submission(8, R"({"archs":"C2"})");  // ...and appends still work
  EXPECT_EQ(j.stats().open, 1u);
}

TEST(ServeJournal, MetaOnlyJournalReopensClean) {
  // A daemon stopped before its first submission leaves only the meta
  // frame, written without an fsync of its own.
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  const std::string meta = store::frame_record("meta sttgpu-journal v1");
  {
    const Journal j(path);
    EXPECT_EQ(j.stats().bytes, meta.size());
  }
  ASSERT_EQ(slurp(path), meta);
  std::vector<std::string> log;
  {
    Journal j(path, [&log](const std::string& line) { log.push_back(line); });
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_EQ(j.max_id(), 0u);
    EXPECT_EQ(log, std::vector<std::string>{});  // nothing torn, corrupt or pending
    EXPECT_EQ(slurp(path), meta);                // and nothing to compact
    j.record_submission(1, R"({"archs":"C1"})");
  }
  const Journal j(path);
  ASSERT_EQ(j.recovered().size(), 1u);
  EXPECT_EQ(j.recovered()[0].id, 1u);
}

TEST(ServeJournal, TornMetaFrameReopensAsFresh) {
  // A crash while a fresh journal's meta frame was being written leaves a
  // prefix of it: it must reopen as an empty journal that takes new records.
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  const std::string meta = store::frame_record("meta sttgpu-journal v1");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(meta.data(), static_cast<std::streamsize>(meta.size() / 2));
  }
  {
    Journal j(path);
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_EQ(j.max_id(), 0u);
    EXPECT_EQ(slurp(path), meta);  // the torn prefix was replaced by a whole frame
    j.record_submission(1, R"({"archs":"C2"})");
  }
  const Journal j(path);
  const std::vector<Journal::Pending> pending = j.recovered();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 1u);
  EXPECT_EQ(pending[0].options_json, R"({"archs":"C2"})");
}

TEST(ServeJournal, ForeignFormatMarkerIsRejected) {
  const TempDir dir;
  const std::string path = dir.path + "/j.journal";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string frame = store::frame_record("meta some-other-tool v9");
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  EXPECT_THROW(Journal{path}, JournalError);
}

}  // namespace
}  // namespace sttgpu::serve
