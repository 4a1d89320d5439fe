// Wire protocol of the sweep service (`sttgpu serve` and its client verbs).
//
// Requests and responses are length-framed JSON documents over a unix
// socket:
//
//   +------+----------------+----------------------+
//   | SWP1 | u32 LE length  |  <length> JSON bytes |
//   +------+----------------+----------------------+
//
// The magic rejects stray clients (an HTTP request or a shell echo never
// parses as a frame); the length is capped at 16 MiB so a corrupt header
// cannot make the peer allocate unbounded memory. Every request and every
// response carries "protocol_version": an incompatible peer is refused with
// a "protocol" error the CLI maps to its own exit code instead of
// misinterpreting fields. An error response's "kind" is "protocol" or
// "error"; version 3 dropped the admission-control shedding kind, and
// version 4 the count of rows merged from other writers in `status`.
//
// A connection carries exactly one request/response exchange. The `watch`
// verb extends the exchange: after the framed acknowledgement the server
// streams newline-delimited JSON events (progress, telemetry frames,
// per-task completions) until the watched submission reaches a terminal
// state, then closes.
//
// Request payloads share their field definitions with the CLI: a submit's
// "options" object is validated against the same knob registry
// (sim/knobs.hpp) that parses argv, so a config can never mean something
// different over the wire than it does at the shell. Result rows travel as
// the store's own "put ..." payload lines (store/record.hpp), which are
// max_digits10 round-trip exact by the store's contract — the service never
// invents a second float serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/json.hpp"

namespace sttgpu::serve {

/// Bumped on any incompatible wire change. Both sides send it; both sides
/// refuse a mismatch (ProtocolMismatch / a "protocol" error response).
inline constexpr std::int64_t kProtocolVersion = 4;

/// Frame header magic ("SWeep Protocol 1", framing version — independent of
/// kProtocolVersion, which governs the JSON inside).
inline constexpr char kFrameMagic[4] = {'S', 'W', 'P', '1'};

/// Ceiling on one frame's payload; a malformed length field fails fast
/// instead of asking the peer to allocate gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// The server could not bind/listen on its socket (path in use, bad
/// directory). Mapped to exit code 6 by the CLI.
class BindError : public SimError {
 public:
  using SimError::SimError;
};

/// The peer speaks a different protocol_version (or none) — or sent bytes
/// that are not frames at all. Mapped to exit code 7 by the CLI.
class ProtocolMismatch : public SimError {
 public:
  using SimError::SimError;
};

// --- EINTR-safe socket I/O -------------------------------------------------

/// Writes all @p n bytes, retrying short writes and EINTR. Throws SimError
/// on any I/O error (including a peer hangup surfacing as EPIPE).
void write_all(int fd, const void* buf, std::size_t n);

/// Reads exactly @p n bytes. Returns false on clean EOF before the first
/// byte; throws SimError on an error or an EOF mid-buffer (torn frame).
bool read_exact(int fd, void* buf, std::size_t n);

// --- framing ---------------------------------------------------------------

/// Sends one frame: magic, length, payload.
void write_frame(int fd, std::string_view payload);

/// Receives one frame's payload. nullopt on clean EOF at a frame boundary;
/// throws ProtocolMismatch on bad magic or an oversized length (the peer is
/// not speaking frames — the server answers with a "protocol" error), and
/// SimError on a torn frame (the peer is gone; nothing can be answered).
std::optional<std::string> read_frame(int fd);

/// Appends '\n' and writes one event line of a watch stream.
void write_event_line(int fd, std::string_view line);

// --- envelope helpers ------------------------------------------------------

/// Serialized error response: {"protocol_version":N,"ok":false,
/// "error":<msg>,"kind":<"protocol"|"error">}.
std::string error_response(const std::string& message, bool protocol_mismatch = false);

/// Server side: verifies a parsed request's protocol_version. Throws
/// ProtocolMismatch naming both versions when absent or different.
void require_version(const JsonValue& request);

/// Client side: checks a parsed response envelope. Throws ProtocolMismatch
/// for kind=="protocol" (and for version mismatches), SimError for any other
/// ok=false, and returns normally for ok=true.
void check_response(const JsonValue& response);

}  // namespace sttgpu::serve
