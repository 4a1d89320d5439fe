// Process exit codes for the sttgpu CLI — the one place their numeric
// values are assigned. Scripts, CI greps and tests key off these numbers,
// so they are append-only: a code never changes meaning once shipped.
#pragma once

namespace sttgpu {

inline constexpr int kExitOk = 0;           ///< success
inline constexpr int kExitError = 1;        ///< simulation/setup error
inline constexpr int kExitUsage = 2;        ///< unknown command or knob
inline constexpr int kExitInterrupted = 3;  ///< SIGINT/SIGTERM; cached rows resume
inline constexpr int kExitWatchdog = 4;     ///< watchdog / per-job timeout kill
inline constexpr int kExitQuarantine = 5;   ///< store fsck: unacknowledged quarantine
inline constexpr int kExitBind = 6;         ///< serve: cannot bind the socket/port
inline constexpr int kExitProtocol = 7;     ///< client/server protocol version mismatch
// 8 is retired (was: submission shed by admission control); never reuse it.
inline constexpr int kExitJournal = 9;      ///< serve: submission journal unusable

}  // namespace sttgpu
