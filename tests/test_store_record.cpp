#include "store/record.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace sttgpu::store {
namespace {

ResultRow sample_row() {
  ResultRow r;
  r.arch = "C1";
  r.benchmark = "bfs";
  r.ipc = 1.0 / 3.0;  // needs all 17 digits to round-trip exactly
  r.cycles = 123456789;
  r.dynamic_w = 0.5;
  r.leakage_w = 0.1;
  r.total_w = 0.6;
  r.l2_write_share = 0.4;
  r.l2_miss_rate = 0.2;
  return r;
}

TEST(StoreRecord, ScaleTextRoundTripsExactly) {
  for (const double s : {0.04, 0.5, 1.0, 1.0 / 3.0, 0.123456789012345}) {
    EXPECT_EQ(std::strtod(scale_text(s).c_str(), nullptr), s) << scale_text(s);
  }
}

TEST(StoreRecord, FingerprintHexMatchesCsvHeaderSpelling) {
  // The checked-in fig8 cache spells its fingerprint exactly like this.
  EXPECT_EQ(fingerprint_hex(0xd180d94558f98587ull), "d180d94558f98587");
  EXPECT_EQ(fingerprint_hex(0x0ull), "0");
  EXPECT_EQ(fingerprint_hex(0xABCDEFull), "abcdef");
}

TEST(StoreRecord, StoreKeyConcatenatesTokens) {
  EXPECT_EQ(store_key(0xff, "0.5", "C1", "bfs"), "ff 0.5 C1 bfs");
}

TEST(StoreRecord, ValidateKeyTokenRejectsUnsafeValues) {
  validate_key_token("arch", "C1");  // fine
  validate_key_token("benchmark", "two-part_v2.1");
  EXPECT_THROW(validate_key_token("arch", ""), SimError);
  EXPECT_THROW(validate_key_token("arch", "a b"), SimError);
  EXPECT_THROW(validate_key_token("arch", "a\tb"), SimError);
  EXPECT_THROW(validate_key_token("arch", "a\nb"), SimError);
  EXPECT_THROW(validate_key_token("arch", std::string("a\x01") + "b"), SimError);
}

TEST(StoreRecord, MetaRecordVersionGate) {
  EXPECT_TRUE(is_meta(kMetaPayload));
  EXPECT_TRUE(meta_supported(kMetaPayload));
  EXPECT_TRUE(is_meta("meta sttgpu-store v99"));
  EXPECT_FALSE(meta_supported("meta sttgpu-store v99"));
  EXPECT_FALSE(is_meta("put ff 0.5 C1 bfs 1 2 3 4 5 6 7"));
}

TEST(StoreRecord, EncodeDecodeRoundTripsEveryField) {
  const ResultRow row = sample_row();
  const std::uint64_t fp = 0xd180d94558f98587ull;
  const std::string payload = encode_put(fp, 0.04, row);
  const auto dec = decode_put(payload);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->fingerprint, fp);
  EXPECT_EQ(dec->scale17, scale_text(0.04));
  EXPECT_EQ(dec->row.arch, row.arch);
  EXPECT_EQ(dec->row.benchmark, row.benchmark);
  EXPECT_EQ(dec->row.ipc, row.ipc);
  EXPECT_EQ(dec->row.cycles, row.cycles);
  EXPECT_EQ(dec->row.dynamic_w, row.dynamic_w);
  EXPECT_EQ(dec->row.leakage_w, row.leakage_w);
  EXPECT_EQ(dec->row.total_w, row.total_w);
  EXPECT_EQ(dec->row.l2_write_share, row.l2_write_share);
  EXPECT_EQ(dec->row.l2_miss_rate, row.l2_miss_rate);
  // Re-encoding the decoded record (compaction's path) is byte-identical.
  EXPECT_EQ(encode_put(dec->fingerprint, dec->scale17, dec->row), payload);
}

TEST(StoreRecord, DecodeRejectsMalformedPayloads) {
  const std::string good = encode_put(0xff, 0.5, sample_row());
  ASSERT_TRUE(decode_put(good).has_value());
  EXPECT_FALSE(decode_put("").has_value());
  EXPECT_FALSE(decode_put("get ff 0.5 C1 bfs").has_value());
  EXPECT_FALSE(decode_put(good + " extra").has_value());          // trailing junk
  EXPECT_FALSE(decode_put(good.substr(0, good.rfind(' '))).has_value());  // short
  EXPECT_FALSE(decode_put("put zz 0.5 C1 bfs 1 2 3 4 5 6 7").has_value());  // bad hex
  EXPECT_FALSE(decode_put("put ff 0.5 C1 bfs x 2 3 4 5 6 7").has_value());  // bad num
  EXPECT_FALSE(decode_put("put ff 0.5 C1 bfs 1 2.5 3 4 5 6 7").has_value());  // cycles
}

}  // namespace
}  // namespace sttgpu::store
