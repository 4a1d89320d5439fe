#include "store/record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "store/csv_format.hpp"

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
  EXPECT_FALSE(decode_put("put ff 0.5 C1 bfs 1 -1 3 4 5 6 7").has_value());  // cycles < 0
}

TEST(StoreRecord, ParseTokenAcceptsExactlyThePinnedSpellings) {
  double d = 0.0;
  EXPECT_TRUE(parse_token("1.5", d) && d == 1.5);
  EXPECT_TRUE(parse_token(" 1.5", d) && d == 1.5);  // leading whitespace
  EXPECT_TRUE(parse_token("-0", d) && d == 0.0 && std::signbit(d));
  EXPECT_TRUE(parse_token("inf", d) && std::isinf(d));
  EXPECT_TRUE(parse_token("nan", d) && std::isnan(d));
  EXPECT_TRUE(parse_token("1e-320", d) && d == 1e-320);  // subnormal
  for (const char* bad : {"", "1.5 ", "+1.5", "0x1p-3", "1e400"}) {
    EXPECT_FALSE(parse_token(bad, d)) << '"' << bad << '"';
  }

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_token("18446744073709551615", u) && u == UINT64_MAX);
  EXPECT_TRUE(parse_token(" 7", u) && u == 7);
  EXPECT_TRUE(parse_token("ff", u, 16) && u == 0xff);
  for (const char* bad : {"", "-1", "+1", "18446744073709551616"}) {
    EXPECT_FALSE(parse_token(bad, u)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_token("0x10", u, 16));
}

/// Every value column of @p a and @p b holds the same bits (-0.0 != 0.0).
void expect_same_bits(const ResultRow& a, const ResultRow& b) {
  std::vector<std::uint64_t> bits;
  for_each_value(a, [&](const char*, const char*, const auto& v) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  });
  std::size_t i = 0;
  for_each_value(b, [&](const char* column, const char*, const auto& v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), bits[i++]) << column;
  });
}

TEST(StoreRecord, ExtremeValuesRoundTripThroughBothEncodings) {
  using lim = std::numeric_limits<double>;
  std::vector<double> extremes{lim::denorm_min(), 2.2250738585072009e-308, lim::max(),
                               lim::lowest(),     -0.0,                    1.0 / 3.0};
  // Two rows, the second with the extremes in reverse column order.
  std::vector<ResultRow> rows;
  for (const std::uint64_t cycles : {std::uint64_t{0}, UINT64_MAX}) {
    ResultRow row = sample_row();
    std::size_t k = 0;
    for_each_value(row, [&](const char*, const char*, auto& v) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>) {
        v = extremes[k++];
      } else {
        v = cycles;
      }
    });
    row.benchmark = "b" + std::to_string(rows.size());
    rows.push_back(row);
    std::reverse(extremes.begin(), extremes.end());
  }

  const std::uint64_t fp = 0xd180d94558f98587ull;
  for (const ResultRow& row : rows) {
    const std::string payload = encode_put(fp, 0.5, row);
    const auto dec = decode_put(payload);
    ASSERT_TRUE(dec.has_value()) << payload;
    expect_same_bits(dec->row, row);
    EXPECT_EQ(encode_put(fp, dec->scale17, dec->row), payload);
  }

  const std::string path = "test_store_record_extremes.csv";
  write_csv_v2(path, 0.5, fp, rows);
  const std::vector<ResultRow> back = read_csv_v2(path, 0.5, fp, nullptr);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i].benchmark, rows[i].benchmark);
    expect_same_bits(back[i], rows[i]);
  }
}

}  // namespace
}  // namespace sttgpu::store
