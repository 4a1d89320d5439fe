#include "store/record.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/error.hpp"

namespace sttgpu::store {

namespace {

/// std::isspace in the C locale: ' ', '\t', '\n', '\v', '\f' and '\r'.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// std::from_chars over the whole of @p tok after its leading whitespace.
template <typename T, typename... Base>
bool from_chars_whole(std::string_view tok, T& out, Base... base) {
  tok.remove_prefix(std::find_if_not(tok.begin(), tok.end(), is_space) - tok.begin());
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out, base...);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void append_number(std::string& out, double v) {
  char buf[32];  // the longest %.17g is 24 characters
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr);
}

void append_number(std::string& out, std::uint64_t v, int base) {
  char buf[64];  // UINT64_MAX in base 2
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
}

bool parse_token(std::string_view tok, double& out) { return from_chars_whole(tok, out); }

bool parse_token(std::string_view tok, std::uint64_t& out, int base) {
  return from_chars_whole(tok, out, base);
}

bool next_token(std::string_view& rest, std::string_view& tok) {
  rest.remove_prefix(std::find_if_not(rest.begin(), rest.end(), is_space) - rest.begin());
  tok = rest.substr(0, std::find_if(rest.begin(), rest.end(), is_space) - rest.begin());
  rest.remove_prefix(tok.size());
  return !tok.empty();
}

std::string scale_text(double scale) {
  std::string out;
  append_number(out, scale);
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::string out;
  append_number(out, fingerprint, 16);
  return out;
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
  std::string out = "put " + store_key(fingerprint, scale17, row.arch, row.benchmark);
  for_each_value(row, [&out](const char*, const char*, const auto& v) {
    out += ' ';
    append_number(out, v);
  });
  return out;
}

std::optional<PutRecord> decode_put(std::string_view payload) {
  std::string_view tag, fp_hex, scale17, arch, benchmark, tok;
  PutRecord r;
  double scale = 0.0;
  bool ok = next_token(payload, tag) && tag == "put" && next_token(payload, fp_hex) &&
            next_token(payload, scale17) && next_token(payload, arch) &&
            next_token(payload, benchmark) && parse_token(fp_hex, r.fingerprint, 16) &&
            parse_token(scale17, scale);
  for_each_value(r.row, [&](const char*, const char*, auto& v) {
    ok = ok && next_token(payload, tok) && parse_token(tok, v);
  });
  if (!ok || next_token(payload, tok)) return std::nullopt;  // malformed, or trailing junk
  r.scale17 = scale17;
  r.row.arch = arch;
  r.row.benchmark = benchmark;
  return r;
}

}  // namespace sttgpu::store
