#include "store/wal.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace sttgpu::store {
namespace {

struct Scan {
  WalScanReport report;
  std::vector<std::pair<std::uint64_t, std::string>> records;
  std::vector<std::pair<std::uint64_t, std::string>> corrupt;
};

Scan scan(std::string_view buf, std::uint64_t base = 0) {
  Scan s;
  s.report = scan_wal_buffer(
      buf, base,
      [&s](std::uint64_t off, std::string_view p) { s.records.emplace_back(off, std::string(p)); },
      [&s](std::uint64_t off, std::string_view p) { s.corrupt.emplace_back(off, std::string(p)); });
  return s;
}

TEST(StoreWal, FrameLayoutIsMagicLenCrcPayload) {
  const std::string f = frame_record("hello");
  ASSERT_EQ(f.size(), kWalHeaderBytes + 5);
  EXPECT_EQ(f.substr(0, 4), "STR1");
  EXPECT_EQ(static_cast<unsigned char>(f[4]), 5u);  // little-endian length
  EXPECT_EQ(f.substr(kWalHeaderBytes), "hello");
}

TEST(StoreWal, FrameRecordRejectsEmptyAndOversizedPayloads) {
  EXPECT_THROW(frame_record(""), SimError);
  EXPECT_THROW(frame_record(std::string(kWalMaxPayload + 1, 'x')), SimError);
  EXPECT_NO_THROW(frame_record(std::string(kWalMaxPayload, 'x')));
}

TEST(StoreWal, ScanWalksCleanBuffer) {
  const std::string buf = frame_record("one") + frame_record("two") + frame_record("three");
  const Scan s = scan(buf);
  EXPECT_TRUE(s.report.clean());
  EXPECT_EQ(s.report.records, 3u);
  EXPECT_EQ(s.report.scanned_end, buf.size());
  ASSERT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.records[0].second, "one");
  EXPECT_EQ(s.records[1].first, frame_record("one").size());
  EXPECT_EQ(s.records[2].second, "three");
}

TEST(StoreWal, EmptyBufferIsClean) {
  const Scan s = scan("");
  EXPECT_TRUE(s.report.clean());
  EXPECT_EQ(s.report.records, 0u);
}

TEST(StoreWal, TornTailAtEveryTruncationOffsetIsDetected) {
  // A crash can cut the last append at ANY byte. Every proper prefix of a
  // trailing frame must classify as torn — never corrupt, never valid.
  const std::string head = frame_record("durable");
  const std::string tail = frame_record("in-flight record");
  for (std::size_t cut = 0; cut < tail.size(); ++cut) {
    const std::string buf = head + tail.substr(0, cut);
    const Scan s = scan(buf);
    EXPECT_EQ(s.report.records, 1u) << "cut=" << cut;
    EXPECT_EQ(s.report.corrupt_ranges, 0u) << "cut=" << cut;
    EXPECT_EQ(s.report.torn_tail, cut != 0) << "cut=" << cut;
    if (cut != 0) {
      EXPECT_EQ(s.report.torn_bytes, cut) << "cut=" << cut;
    }
    EXPECT_EQ(s.report.scanned_end, head.size()) << "cut=" << cut;
  }
}

TEST(StoreWal, BitRotInOneFrameDoesNotTakeDownItsNeighbours) {
  const std::string f1 = frame_record("first");
  const std::string f2 = frame_record("second");
  const std::string f3 = frame_record("third");
  std::string buf = f1 + f2 + f3;
  buf[f1.size() + kWalHeaderBytes] ^= 0x40;  // flip a payload bit in frame 2
  const Scan s = scan(buf);
  EXPECT_EQ(s.report.records, 2u);
  EXPECT_EQ(s.report.corrupt_ranges, 1u);
  EXPECT_EQ(s.report.corrupt_bytes, f2.size());
  ASSERT_EQ(s.records.size(), 2u);
  EXPECT_EQ(s.records[0].second, "first");
  EXPECT_EQ(s.records[1].second, "third");
  ASSERT_EQ(s.corrupt.size(), 1u);
  EXPECT_EQ(s.corrupt[0].first, f1.size());
  EXPECT_EQ(s.corrupt[0].second.size(), f2.size());
  EXPECT_FALSE(s.report.torn_tail);
}

TEST(StoreWal, GarbageBetweenFramesResyncsToNextVerifiableFrame) {
  const std::string f1 = frame_record("keep-a");
  const std::string f2 = frame_record("keep-b");
  const std::string buf = f1 + "GARBAGE-NOT-A-FRAME" + f2;
  const Scan s = scan(buf);
  EXPECT_EQ(s.report.records, 2u);
  EXPECT_EQ(s.report.corrupt_ranges, 1u);
  ASSERT_EQ(s.corrupt.size(), 1u);
  EXPECT_EQ(s.corrupt[0].second, "GARBAGE-NOT-A-FRAME");
  EXPECT_EQ(s.report.scanned_end, buf.size());
}

TEST(StoreWal, StrayMagicInsideGarbageDoesNotFoolTheResync) {
  // The resync demands a verifiable candidate frame, so corrupt bytes that
  // happen to contain "STR1" are still one quarantined range.
  const std::string f1 = frame_record("ok");
  const std::string junk = "xxSTR1xxxxxxxxxxxxxxxx";  // magic + absurd header
  const std::string f2 = frame_record("also-ok");
  const Scan s = scan(f1 + junk + f2);
  EXPECT_EQ(s.report.records, 2u);
  EXPECT_EQ(s.report.corrupt_ranges, 1u);
  ASSERT_EQ(s.corrupt.size(), 1u);
  EXPECT_EQ(s.corrupt[0].second, junk);
}

TEST(StoreWal, BaseOffsetShiftsReportedOffsets) {
  const std::string f = frame_record("tailrec");
  const Scan s = scan(f, 4096);
  ASSERT_EQ(s.records.size(), 1u);
  EXPECT_EQ(s.records[0].first, 4096u);
  EXPECT_EQ(s.report.scanned_end, 4096u + f.size());
}

TEST(StoreWal, AppendedFramesScanBackVerbatim) {
  const std::string path = "test_store_wal_append.bin";
  std::remove(path.c_str());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  wal_append(fd, frame_record("alpha"), path);
  wal_append(fd, frame_record("beta") + frame_record("gamma"), path);
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  const Scan s = scan(os.str());
  EXPECT_TRUE(s.report.clean());
  ASSERT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.records[0].second, "alpha");
  EXPECT_EQ(s.records[1].second, "beta");
  EXPECT_EQ(s.records[2].second, "gamma");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttgpu::store
