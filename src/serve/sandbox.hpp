// Process-isolated simulation for the sweep service.
//
// run_sandboxed() executes one cache-miss simulation in a forked child, so
// a run that SIGSEGVs, exhausts memory, or wedges in an infinite loop can
// never take the daemon — and every other client's in-flight work — down
// with it. The parent supervises the child with the thread supervisor's
// (sim/supervisor) semantics transplanted onto process boundaries:
//
//   * heartbeat — the parent maps one MAP_SHARED page before fork(); the
//     child's Gpu publishes its cycle count there at every supervision
//     point, and the parent's poll loop reads it directly. A child whose
//     heartbeat stops advancing for watchdog_s seconds is SIGKILLed (status
//     kWatchdog). job_timeout_s bounds one attempt's wall clock the same way
//     (kTimeout).
//   * retry — crashes, OOMs and ordinary failures are retried up to
//     `retries` extra times with the supervisor's own deterministic
//     backoff curve (sim::retry_backoff_seconds). Watchdog/timeout kills
//     and cancellations are never retried: a livelocked run would livelock
//     again.
//   * cancellation — the per-task CancelToken is polled between pipe reads;
//     a cancelled child is SIGKILLed immediately (kCancelled).
//   * memory — mem_limit_bytes > 0 installs RLIMIT_AS in the child, so a
//     runaway allocation fails *inside the sandbox* (reported as kOom via a
//     caught std::bad_alloc, or as kCrashed if the kernel gets there first)
//     instead of driving the host into swap.
//
// The result travels back over a pipe as the store's own "put ..." payload
// line (store/record.hpp, max_digits10 round-trip exact), so a row simulated
// in a sandbox is byte-identical to one simulated in-process or by a direct
// `sttgpu matrix` run. Telemetry frames are forwarded live on the same pipe
// as the watch stream's own event JSON. The child runs single-threaded and
// exits as soon as its row is written.
//
// Fault injection for tests and the CI chaos smoke: the
// STTGPU_SANDBOX_FAULT environment variable holds a comma-separated list of
// "<arch>/<bench>=<abort|oom|hang>[@<attempt>]" entries; a matching child
// aborts, allocates until bad_alloc, or stops beating — on every attempt,
// or only on the 1-based attempt given after '@'.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/cancel.hpp"
#include "common/telemetry.hpp"
#include "sim/runner.hpp"

namespace sttgpu::serve {

/// Terminal state of one sandboxed task (after retries).
enum class SandboxStatus {
  kOk,         ///< row produced (possibly after retries)
  kFailed,     ///< child reported an ordinary simulation error
  kCrashed,    ///< child died on a signal (SIGSEGV, SIGABRT, kernel OOM kill)
  kOom,        ///< child hit the RLIMIT_AS mem_limit (std::bad_alloc)
  kWatchdog,   ///< killed: heartbeat made no progress for watchdog_s
  kTimeout,    ///< killed: attempt exceeded job_timeout_s
  kCancelled,  ///< killed or skipped: external cancellation
};

const char* sandbox_status_name(SandboxStatus s) noexcept;

/// What to simulate — everything the child needs to run and to label its
/// result/telemetry lines.
struct SandboxJob {
  sim::Architecture arch_id{};
  std::string arch;
  std::string bench;
  std::uint64_t fp = 0;
  std::string scale17;        ///< canonical scale text for the row line
  sim::RunOptions base;       ///< scale + simulation-shaping knobs, no hooks
  bool want_telemetry = false;
  Cycle interval = 50000;
};

struct SandboxOptions {
  double watchdog_s = 0.0;     ///< 0 = watchdog off
  double job_timeout_s = 0.0;  ///< 0 = no per-attempt wall-clock budget
  unsigned retries = 0;        ///< extra attempts for failed/crashed/OOM runs
  double retry_backoff_s = 0.25;
  std::uint64_t mem_limit_bytes = 0;  ///< 0 = no RLIMIT_AS in the child
  const CancelToken* cancel = nullptr;
  /// Runs in the child immediately after fork — the server closes its
  /// listener fds here so an orphaned child can never hold the socket open.
  std::function<void()> in_child;
};

struct SandboxResult {
  SandboxStatus status = SandboxStatus::kFailed;
  unsigned attempts = 0;  ///< forks actually performed
  unsigned kills = 0;     ///< SIGKILLs we sent (watchdog/timeout/cancel)
  unsigned crashes = 0;   ///< attempts that died on a signal or OOMed
  std::string error;      ///< last failure message ("" on success)
  std::string row_line;   ///< "put ..." payload line (kOk only)
};

/// Runs @p job in forked children until it succeeds, exhausts its retry
/// budget, or is killed/cancelled. @p on_event receives forwarded telemetry
/// event lines (complete JSON objects) on the calling thread. Never throws
/// for child failures — every terminal state is reported in the result.
SandboxResult run_sandboxed(const SandboxJob& job, const SandboxOptions& opts,
                            const std::function<void(const std::string&)>& on_event = {});

/// The watch stream's telemetry event JSON for one closed frame. Shared by
/// the sandbox child and the in-process path so both streams are identical.
std::string telemetry_event_json(const std::string& arch, const std::string& bench,
                                 const Telemetry& tel, std::size_t frame);

}  // namespace sttgpu::serve
