#include "store/csv_format.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/atomic_file.hpp"

namespace sttgpu::store {

namespace {

constexpr char kCacheMagic[] = "# sttgpu-cache v2";

/// Pops the text before the next @p sep off the front of @p rest, and the
/// separator with it; the last piece takes all that is left.
std::string_view pop_until(std::string_view& rest, char sep) {
  const std::string_view piece = rest.substr(0, rest.find(sep));
  rest.remove_prefix(std::min(piece.size() + 1, rest.size()));
  return piece;
}

/// Parses one data row; nullopt (caller warns + skips) on any malformation.
std::optional<ResultRow> parse_row(std::string_view row) {
  std::size_t cells = std::count(row.begin(), row.end(), ',') + 1;  // left to take
  const auto cell = [&row, &cells](std::string_view& out) {
    out = pop_until(row, ',');
    return cells-- > 0;
  };
  std::string_view arch, benchmark, tok;
  bool ok = cell(arch) && cell(benchmark) && !arch.empty() && !benchmark.empty();
  ResultRow m;
  for_each_value(m, [&](const char*, const char*, auto& v) {
    ok = ok && cell(tok) && parse_token(tok, v);
  });
  if (!ok || cells != 0) return std::nullopt;
  m.arch = arch;
  m.benchmark = benchmark;
  return m;
}

/// Extracts "key=value" from a whitespace-separated header line.
std::optional<std::string_view> header_field(std::string_view header, std::string_view key) {
  for (std::string_view tok; next_token(header, tok);) {
    if (tok.starts_with(key) && tok.substr(key.size()).starts_with('=')) {
      return tok.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

void warn(const LogFn& log, const std::string& line) {
  if (log) log(line);
}

}  // namespace

std::vector<ResultRow> read_csv_v2(const std::string& path, double scale,
                                   std::uint64_t fingerprint, const LogFn& log) {
  std::vector<ResultRow> rows;
  std::ifstream in(path, std::ios::binary);
  if (!in) return rows;
  std::ostringstream file;
  file << in.rdbuf();
  const std::string text = file.str();

  // An empty or whitespace-only file is a cold cache (e.g. `touch`ed by a
  // wrapper script, or truncated by hand), not a malformed one: start fresh
  // without the scary foreign-format warning.
  if (std::string_view probe = text, tok; !next_token(probe, tok)) return rows;

  std::string_view rest = text;
  const std::string_view header = pop_until(rest, '\n');
  if (!header.starts_with(kCacheMagic)) {
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
    warn(log, "[cache] " + path + ": written at scale=" + std::string(*file_scale) +
                  ", requested scale=" + scale_text(scale) + " — ignoring stale cache");
    return rows;
  }
  if (*file_config != fingerprint_hex(fingerprint)) {
    warn(log, "[cache] " + path + ": simulator config fingerprint mismatch (cache " +
                  std::string(*file_config) + ", current " + fingerprint_hex(fingerprint) +
                  ") — ignoring stale cache");
    return rows;
  }

  pop_until(rest, '\n');  // column names; ignored

  // Malformed rows are skipped (they will simply re-simulate), but reported
  // as ONE summary line — a corrupted tail would otherwise emit hundreds of
  // per-row warnings and bury the progress log.
  std::size_t skipped = 0;
  constexpr std::size_t kMaxQuoted = 3;
  std::string offenders;
  for (std::size_t lineno = 3; !rest.empty(); ++lineno) {
    const std::string_view row = pop_until(rest, '\n');
    if (row.empty()) continue;
    std::optional<ResultRow> m = parse_row(row);
    if (!m) {
      if (++skipped <= kMaxQuoted) {
        offenders += "\n  line " + std::to_string(lineno) + ": ";
        offenders += row;
      }
      continue;
    }
    rows.push_back(std::move(*m));
  }
  if (skipped > kMaxQuoted) {
    offenders += "\n  ... and " + std::to_string(skipped - kMaxQuoted) + " more";
  }
  if (skipped > 0) {
    warn(log, "[cache] " + path + ": skipped " + std::to_string(skipped) + " malformed row" +
                  (skipped == 1 ? "" : "s") + " (will re-simulate)" + offenders);
  }
  return rows;
}

void write_csv_v2(const std::string& path, double scale, std::uint64_t fingerprint,
                  const std::vector<ResultRow>& rows) {
  std::string text = std::string(kCacheMagic) + " scale=" + scale_text(scale) +
                     " config=" + fingerprint_hex(fingerprint) + "\narch,benchmark";
  for_each_value(ResultRow{}, [&text](const char* column, const char*, const auto&) {
    text.append(1, ',').append(column);
  });
  text += '\n';
  for (const ResultRow& m : rows) {
    text.append(m.arch).append(1, ',').append(m.benchmark);
    for_each_value(m, [&text](const char*, const char*, const auto& v) {
      text += ',';
      append_number(text, v);
    });
    text += '\n';
  }
  atomic_write_file(path, [&text](std::ostream& out) { out << text; });
}

}  // namespace sttgpu::store
