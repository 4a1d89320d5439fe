#include "store/csv_format.hpp"

#include <cctype>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>

#include "common/atomic_file.hpp"

namespace sttgpu::store {

namespace {

constexpr char kCacheMagic[] = "# sttgpu-cache v2";

std::vector<std::string> split_csv(const std::string& row) {
  std::vector<std::string> cells;
  std::istringstream ss(row);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!row.empty() && row.back() == ',') cells.emplace_back();
  return cells;
}

/// Parses one data row; nullopt (caller warns + skips) on any malformation.
std::optional<ResultRow> parse_row(const std::string& row) {
  const std::vector<std::string> cells = split_csv(row);
  if (cells.size() < 2) return std::nullopt;
  ResultRow m;
  m.arch = cells[0];
  m.benchmark = cells[1];
  bool ok = !m.arch.empty() && !m.benchmark.empty();
  std::size_t i = 2;
  for_each_value(m, [&](const char*, const char*, auto& v) {
    ok = ok && i < cells.size() && parse_token(cells[i++], v);
  });
  if (!ok || i != cells.size()) return std::nullopt;
  return m;
}

/// Extracts "key=value" from a whitespace-separated header line.
std::optional<std::string> header_field(const std::string& header, const std::string& key) {
  std::istringstream ss(header);
  std::string token;
  while (ss >> token) {
    if (token.rfind(key + "=", 0) == 0) return token.substr(key.size() + 1);
  }
  return std::nullopt;
}

void warn(const LogFn& log, const std::string& line) {
  if (log) log(line);
}

bool whitespace_only(std::istream& in) {
  char c = 0;
  while (in.get(c)) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

}  // namespace

std::vector<ResultRow> read_csv_v2(const std::string& path, double scale,
                                   std::uint64_t fingerprint, const LogFn& log) {
  std::vector<ResultRow> rows;
  std::ifstream in(path);
  if (!in) return rows;

  // An empty or whitespace-only file is a cold cache (e.g. `touch`ed by a
  // wrapper script, or truncated by hand), not a malformed one: start fresh
  // without the scary foreign-format warning.
  if (whitespace_only(in)) return rows;
  in.clear();
  in.seekg(0);

  std::string header;
  std::getline(in, header);
  if (header.rfind(kCacheMagic, 0) != 0) {
    warn(log, "[cache] " + path +
                  ": not a v2 result cache (old or foreign format) — ignoring it;"
                  " the matrix will re-simulate and rewrite it");
    return rows;
  }
  const auto file_scale = header_field(header, "scale");
  const auto file_config = header_field(header, "config");
  if (!file_scale || !file_config) {
    warn(log, "[cache] " + path + ": malformed v2 header — ignoring");
    return rows;
  }
  double parsed_scale = 0.0;
  if (!parse_token(*file_scale, parsed_scale) || parsed_scale != scale) {
    warn(log, "[cache] " + path + ": written at scale=" + *file_scale +
                  ", requested scale=" + scale_text(scale) + " — ignoring stale cache");
    return rows;
  }
  if (*file_config != fingerprint_hex(fingerprint)) {
    warn(log, "[cache] " + path + ": simulator config fingerprint mismatch (cache " +
                  *file_config + ", current " + fingerprint_hex(fingerprint) +
                  ") — ignoring stale cache");
    return rows;
  }

  std::string column_header;
  std::getline(in, column_header);  // column names; ignored

  // Malformed rows are skipped (they will simply re-simulate), but reported
  // as ONE summary line — a corrupted tail would otherwise emit hundreds of
  // per-row warnings and bury the progress log.
  std::size_t skipped = 0;
  constexpr std::size_t kMaxQuoted = 3;
  std::ostringstream offenders;
  std::string row;
  std::size_t lineno = 2;
  while (std::getline(in, row)) {
    ++lineno;
    if (row.empty()) continue;
    const std::optional<ResultRow> m = parse_row(row);
    if (!m) {
      ++skipped;
      if (skipped <= kMaxQuoted) {
        offenders << "\n  line " << lineno << ": " << row;
      }
      continue;
    }
    rows.push_back(*m);
  }
  if (skipped > 0) {
    std::ostringstream os;
    os << "[cache] " << path << ": skipped " << skipped << " malformed row"
       << (skipped == 1 ? "" : "s") << " (will re-simulate)" << offenders.str();
    if (skipped > kMaxQuoted) os << "\n  ... and " << skipped - kMaxQuoted << " more";
    warn(log, os.str());
  }
  return rows;
}

void write_csv_v2(const std::string& path, double scale, std::uint64_t fingerprint,
                  const std::vector<ResultRow>& rows) {
  atomic_write_file(path, [&](std::ostream& out) {
    out << std::setprecision(17);
    out << kCacheMagic << " scale=" << scale_text(scale)
        << " config=" << fingerprint_hex(fingerprint) << '\n';
    out << "arch,benchmark";
    for_each_value(ResultRow{}, [&out](const char* column, const char*, const auto&) {
      out << ',' << column;
    });
    out << '\n';
    for (const ResultRow& m : rows) {
      out << m.arch << ',' << m.benchmark;
      for_each_value(m, [&out](const char*, const char*, const auto& v) { out << ',' << v; });
      out << '\n';
    }
  });
}

}  // namespace sttgpu::store
