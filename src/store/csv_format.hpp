// The v2 CSV result format, ported out of sim/runner.cpp.
//
//   # sttgpu-cache v2 scale=<scale> config=<hex fingerprint>
//   arch,benchmark,ipc,cycles,dynamic_w,leakage_w,total_w,write_share,miss_rate
//   <rows ...>
//
// The columns after arch,benchmark are store::for_each_value's (record.hpp).
// Since the WAL-backed ResultStore became the source of truth, CSV is the
// *export* format: human-diffable, checked in (fig8_cache.csv), and the
// one-time migration source for stores that do not exist yet. The header
// still pins one (scale, config fingerprint) pair per file; a mismatch on
// either means every row is stale and the whole file is ignored. Values are
// written with max_digits10 precision so a load -> save round trip is
// bit-exact — the checked-in cache regenerates byte-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/record.hpp"

namespace sttgpu::store {

/// Line-oriented warning sink ("[cache] ..." messages). Null is allowed.
using LogFn = std::function<void(const std::string&)>;

/// Loads a v2 CSV. Returns no rows — with a warning via @p log — if the
/// file is not format v2, or was written at a different scale / config
/// fingerprint. An absent, empty, or whitespace-only file is simply a cold
/// cache: no rows, no warning. Malformed rows are skipped and summarized in
/// one warning.
std::vector<ResultRow> read_csv_v2(const std::string& path, double scale,
                                   std::uint64_t fingerprint, const LogFn& log);

/// Writes @p rows (in the given order) as a v2 CSV via the atomic
/// write-fsync-rename discipline. Throws SimError if the path is not
/// writable.
void write_csv_v2(const std::string& path, double scale, std::uint64_t fingerprint,
                  const std::vector<ResultRow>& rows);

}  // namespace sttgpu::store
