// Client side of the sweep-service protocol: connect, one framed
// request/response exchange, and the watch event stream. Used by the
// `sttgpu submit|status|watch|cancel|result|health` verbs and the server
// tests.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace sttgpu::serve {

class Client {
 public:
  /// Connects to the server's unix socket at @p socket_path. Throws SimError
  /// when nothing is listening (the CLI tells the user to start `sttgpu
  /// serve`).
  static Client connect(const std::string& socket_path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One exchange: frames @p request_json, reads the response frame, parses
  /// it, and runs check_response (throws ProtocolMismatch / SimError on an
  /// error envelope). Returns the parsed response.
  JsonValue request(std::string_view request_json);

  /// The watch exchange: frames the request, checks the framed
  /// acknowledgement, then parses each newline-delimited event line into
  /// @p on_event until the terminal "complete" event (returned) or EOF.
  /// @p on_event receives both the raw line (so `sttgpu watch` can relay
  /// the NDJSON stream byte-for-byte) and the parsed event.
  JsonValue stream(std::string_view request_json,
                   const std::function<void(const std::string& line,
                                            const JsonValue& event)>& on_event);

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace sttgpu::serve
