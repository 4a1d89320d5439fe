#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

namespace sttgpu::serve {

void write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as an EPIPE error we can
    // report, not a SIGPIPE that kills the daemon.
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw SimError(std::string("socket write failed: ") + std::strerror(errno));
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

bool read_exact(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw SimError(std::string("socket read failed: ") + std::strerror(errno));
    }
    if (k == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw SimError("connection closed mid-frame (" + std::to_string(got) + " of " +
                     std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

void write_frame(int fd, std::string_view payload) {
  STTGPU_REQUIRE(payload.size() <= kMaxFramePayload, "frame payload exceeds 16 MiB");
  char header[8];
  std::memcpy(header, kFrameMagic, 4);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header[4] = static_cast<char>(len & 0xff);
  header[5] = static_cast<char>((len >> 8) & 0xff);
  header[6] = static_cast<char>((len >> 16) & 0xff);
  header[7] = static_cast<char>((len >> 24) & 0xff);
  // One write for header+payload when small keeps the common case a single
  // syscall; correctness never depends on it (read side reassembles).
  std::string out;
  out.reserve(8 + payload.size());
  out.append(header, 8);
  out.append(payload);
  write_all(fd, out.data(), out.size());
}

std::optional<std::string> read_frame(int fd) {
  char header[8];
  if (!read_exact(fd, header, sizeof header)) return std::nullopt;
  if (std::memcmp(header, kFrameMagic, 4) != 0) {
    throw ProtocolMismatch(
        "bad frame magic — peer is not speaking the sttgpu sweep protocol");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(static_cast<unsigned char>(header[4])) |
                            static_cast<std::uint32_t>(static_cast<unsigned char>(header[5])) << 8 |
                            static_cast<std::uint32_t>(static_cast<unsigned char>(header[6])) << 16 |
                            static_cast<std::uint32_t>(static_cast<unsigned char>(header[7])) << 24;
  if (len > kMaxFramePayload) {
    throw ProtocolMismatch("frame length " + std::to_string(len) +
                           " exceeds the 16 MiB cap");
  }
  std::string payload(len, '\0');
  if (len > 0 && !read_exact(fd, payload.data(), len)) {
    throw SimError("connection closed mid-frame");
  }
  return payload;
}

void write_event_line(int fd, std::string_view line) {
  std::string out(line);
  out.push_back('\n');
  write_all(fd, out.data(), out.size());
}

std::string error_response(const std::string& message, bool protocol_mismatch) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(kProtocolVersion);
  w.key("ok").value(false);
  w.key("kind").value(protocol_mismatch ? "protocol" : "error");
  w.key("error").value(message);
  w.end_object();
  return os.str();
}

void require_version(const JsonValue& request) {
  const JsonValue* v = request.find("protocol_version");
  if (v == nullptr) {
    throw ProtocolMismatch("request carries no protocol_version (server speaks v" +
                           std::to_string(kProtocolVersion) + ")");
  }
  if (v->as_int() != kProtocolVersion) {
    throw ProtocolMismatch("client speaks protocol v" + std::to_string(v->as_int()) +
                           ", server speaks v" + std::to_string(kProtocolVersion));
  }
}

void check_response(const JsonValue& response) {
  const JsonValue* v = response.find("protocol_version");
  if (v == nullptr || v->as_int() != kProtocolVersion) {
    throw ProtocolMismatch(
        "server response carries protocol v" +
        (v == nullptr ? std::string("<none>") : std::to_string(v->as_int())) +
        ", this client speaks v" + std::to_string(kProtocolVersion));
  }
  const JsonValue* ok = response.find("ok");
  if (ok != nullptr && ok->as_bool()) return;
  const JsonValue* err = response.find("error");
  const std::string msg = err != nullptr ? err->as_string() : "unspecified server error";
  const JsonValue* kind = response.find("kind");
  if (kind != nullptr && kind->as_string() == "protocol") throw ProtocolMismatch(msg);
  throw SimError(msg);
}

}  // namespace sttgpu::serve
