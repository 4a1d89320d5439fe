// Result-store records: the persisted schema of one simulation result and
// its key, plus the text encoding that goes inside a WAL frame.
//
// A store row is keyed by (config fingerprint, workload scale, config-label
// a.k.a. architecture, kernel a.k.a. benchmark) — unlike the v2 CSV export,
// which pins one (scale, fingerprint) pair per file, a single store holds
// results for any number of configurations side by side, so design-space
// sweeps across competing architectures dedupe against one log.
//
// Payloads are single text lines ("put <fp> <scale> <arch> <bench> <nums>")
// rather than packed binary: they are human-inspectable with `strings`, the
// framing layer (wal.hpp) already provides length + CRC32 integrity, and
// numbers are written with max_digits10 precision so a decode -> encode
// round trip is byte-exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace sttgpu::store {

/// One simulation result: the schema of a store record, a CSV row and a
/// JSON metrics block alike (sim::Metrics is this type).
struct ResultRow {
  std::string arch;       ///< config-label (architecture name, e.g. "C1")
  std::string benchmark;  ///< kernel/workload name (e.g. "bfs")
  double ipc = 0.0;
  std::uint64_t cycles = 0;
  double dynamic_w = 0.0;  ///< L2 dynamic power over the run
  double leakage_w = 0.0;  ///< L2 leakage
  double total_w = 0.0;
  double l2_write_share = 0.0;
  double l2_miss_rate = 0.0;
};

/// Calls f(csv_column, json_key, value) for each value column of @p row, in
/// schema order: the order of the CSV columns and of the numbers in a put
/// payload. The one list of value columns; every encoder and decoder walks
/// it. @p row may be const (encoders) or not (decoders fill it in place).
template <typename Row, typename F>
inline void for_each_value(Row&& row, F&& f) {
  static_assert(std::is_same_v<std::remove_cvref_t<Row>, ResultRow>);
  f("ipc", "ipc", row.ipc);
  f("cycles", "cycles", row.cycles);
  f("dynamic_w", "dynamic_w", row.dynamic_w);
  f("leakage_w", "leakage_w", row.leakage_w);
  f("total_w", "total_w", row.total_w);
  f("write_share", "l2_write_share", row.l2_write_share);
  f("miss_rate", "l2_miss_rate", row.l2_miss_rate);
}

// A field added to ResultRow without a column above fails here.
static_assert(sizeof(ResultRow) ==
                  2 * sizeof(std::string) + 6 * sizeof(double) + sizeof(std::uint64_t),
              "ResultRow changed: update for_each_value, then this count");

/// Parses the whole of @p tok as a number; false if any of it is not.
/// (Leading whitespace is accepted, as std::stod/stoull accept it.)
bool parse_token(const std::string& tok, double& out);
bool parse_token(const std::string& tok, std::uint64_t& out, int base = 10);

/// Canonical 17-significant-digit text form of a scale (or any double):
/// the key uses the text form so exact-equality questions never touch
/// floating-point comparison, and 17 digits round-trip doubles uniquely.
std::string scale_text(double scale);

/// Lower-case hex fingerprint, exactly as the v2 CSV header spells it.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// The in-memory index key: "<fp_hex> <scale17> <arch> <benchmark>".
std::string store_key(std::uint64_t fingerprint, const std::string& scale17,
                      const std::string& arch, const std::string& benchmark);

/// Throws SimError if @p value cannot be a key token (empty, or contains
/// whitespace / control characters that would corrupt the text payload).
void validate_key_token(const char* what, const std::string& value);

// --- payload encode/decode -------------------------------------------------

/// The store format marker written as the first record of every log.
/// Version bumps are a hard stop on open: a store written by a newer format
/// must not be silently misread.
inline constexpr std::string_view kMetaPayload = "meta sttgpu-store v1";
inline constexpr std::string_view kMetaPrefix = "meta ";

bool is_meta(std::string_view payload);
bool meta_supported(std::string_view payload);

/// Encodes one result as a "put" payload line.
std::string encode_put(std::uint64_t fingerprint, double scale, const ResultRow& row);

/// Same, with the scale already in canonical text form (compaction re-emits
/// records without ever round-tripping the scale through a double).
std::string encode_put(std::uint64_t fingerprint, const std::string& scale17,
                       const ResultRow& row);

struct PutRecord {
  std::uint64_t fingerprint = 0;
  std::string scale17;  ///< scale in canonical text form, as stored
  ResultRow row;
};

/// Strict decode of a "put" payload; nullopt on any malformation (wrong
/// field count, unparseable number). The caller quarantines such records.
std::optional<PutRecord> decode_put(std::string_view payload);

}  // namespace sttgpu::store
