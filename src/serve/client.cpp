#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace sttgpu::serve {

Client Client::connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  STTGPU_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
                 "socket path too long: " + socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  STTGPU_REQUIRE(fd >= 0, std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw SimError("cannot reach the sweep service at " + socket_path + " (" + why +
                   ") — is `sttgpu serve` running?");
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

JsonValue Client::request(std::string_view request_json) {
  write_frame(fd_, request_json);
  const std::optional<std::string> payload = read_frame(fd_);
  STTGPU_REQUIRE(payload.has_value(), "server closed the connection without a response");
  JsonValue response = parse_json(*payload);
  check_response(response);
  return response;
}

JsonValue Client::stream(std::string_view request_json,
                         const std::function<void(const std::string& line,
                                                  const JsonValue& event)>& on_event) {
  write_frame(fd_, request_json);
  const std::optional<std::string> ack = read_frame(fd_);
  STTGPU_REQUIRE(ack.has_value(), "server closed the connection without a response");
  check_response(parse_json(*ack));

  // After the acknowledgement the stream is newline-delimited JSON events.
  std::string buffered;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffered.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffered.substr(0, nl);
      buffered.erase(0, nl + 1);
      if (line.empty()) continue;
      JsonValue event = parse_json(line);
      const JsonValue* kind = event.find("event");
      if (on_event) on_event(line, event);
      if (kind != nullptr && kind->as_string() == "complete") return event;
      continue;
    }
    const ssize_t k = ::read(fd_, chunk, sizeof chunk);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw SimError(std::string("socket read failed: ") + std::strerror(errno));
    }
    STTGPU_REQUIRE(k != 0, "server closed the event stream before the terminal event");
    buffered.append(chunk, static_cast<std::size_t>(k));
  }
}

}  // namespace sttgpu::serve
