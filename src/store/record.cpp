#include "store/record.hpp"

#include <cctype>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace sttgpu::store {

std::string scale_text(double scale) {
  std::ostringstream os;
  os << std::setprecision(17) << scale;
  return os.str();
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::ostringstream os;
  os << std::hex << fingerprint;
  return os.str();
}

std::string store_key(std::uint64_t fingerprint, const std::string& scale17,
                      const std::string& arch, const std::string& benchmark) {
  return fingerprint_hex(fingerprint) + ' ' + scale17 + ' ' + arch + ' ' + benchmark;
}

void validate_key_token(const char* what, const std::string& value) {
  STTGPU_REQUIRE(!value.empty(), std::string("store: ") + what + " must not be empty");
  for (const char c : value) {
    const auto u = static_cast<unsigned char>(c);
    STTGPU_REQUIRE(!std::isspace(u) && u >= 0x20,
                   std::string("store: ") + what + " '" + value +
                       "' contains whitespace or control characters");
  }
}

bool is_meta(std::string_view payload) {
  return payload.rfind(kMetaPrefix, 0) == 0;
}

bool meta_supported(std::string_view payload) { return payload == kMetaPayload; }

std::string encode_put(std::uint64_t fingerprint, double scale, const ResultRow& row) {
  return encode_put(fingerprint, scale_text(scale), row);
}

std::string encode_put(std::uint64_t fingerprint, const std::string& scale17,
                       const ResultRow& row) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "put " << fingerprint_hex(fingerprint) << ' ' << scale17 << ' ' << row.arch
     << ' ' << row.benchmark;
  for_each_value(row, [&os](const char*, const char*, const auto& v) { os << ' ' << v; });
  return os.str();
}

bool parse_token(const std::string& tok, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(tok, &pos);
    return pos == tok.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_token(const std::string& tok, std::uint64_t& out, int base) {
  try {
    std::size_t pos = 0;
    out = std::stoull(tok, &pos, base);
    return pos == tok.size();
  } catch (const std::exception&) {
    return false;
  }
}

std::optional<PutRecord> decode_put(std::string_view payload) {
  std::istringstream ss{std::string(payload)};
  std::string tag, fp_hex, tok;
  PutRecord r;
  ss >> tag >> fp_hex >> r.scale17 >> r.row.arch >> r.row.benchmark;
  double scale = 0.0;
  bool ok = tag == "put" && static_cast<bool>(ss) && parse_token(fp_hex, r.fingerprint, 16) &&
            parse_token(r.scale17, scale);
  for_each_value(r.row, [&](const char*, const char*, auto& v) {
    ok = ok && static_cast<bool>(ss >> tok) && parse_token(tok, v);
  });
  if (!ok || ss >> tok) return std::nullopt;  // malformed, or trailing junk
  return r;
}

}  // namespace sttgpu::store
