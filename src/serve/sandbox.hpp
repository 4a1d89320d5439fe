// Process-isolated simulation for the sweep service.
//
// A Sandbox runs the attempts of supervised jobs (sim/supervisor.hpp) in
// one long-lived worker process, so a run that SIGSEGVs, exhausts memory,
// or wedges can never take the daemon — and every other client's in-flight
// work — down with it. The supervisor owns the policy (attempts, watchdog,
// job_timeout, retry with backoff, cancellation); the sandbox only bridges
// the process boundary:
//
//   * worker — the first attempt posix_spawn()s /proc/self/exe with
//     STTGPU_SANDBOX_WORKER set, and an initializer in sandbox.cpp makes
//     that process the worker before main() runs, so any binary that links
//     the sandbox can be one. Exec leaves the daemon's threads and locks
//     behind; only stdio, the channel (a socketpair) and the heartbeat cross
//     it. Later attempts reuse the worker; a failed or killed attempt ends
//     it, and the next one spawns a fresh worker, as after an idle death.
//   * heartbeat — a memfd page both processes map: the worker's Gpu
//     publishes its cycle count there, and the parent copies it into
//     ctl.beat() on every poll wake for the supervisor's watchdog.
//   * cancellation — a requested ctl token (user cancel, watchdog, timeout)
//     SIGKILLs the worker and throws Cancelled, which is never retried; a
//     worker that dies on a signal, hits the mem_limit, or reports an error
//     throws a plain SimError, which the supervisor may retry.
//   * memory — a mem_limit_bytes > 0 is the worker's lifelong RLIMIT_AS, so
//     a runaway allocation fails inside the sandbox, not in the host's swap.
//
// A job crosses the channel as one JSON line holding its RunOptions in the
// registry's wire form (sim/knobs.hpp). The worker derives the architecture,
// fingerprint and scale text with the daemon's own functions and answers
// with the store's own "put ..." payload line (store/record.hpp), so a
// sandboxed row is byte-identical to a direct `sttgpu matrix` row.
// Telemetry frames stream back on the same channel as watch event JSON.
//
// The isolation trade: a job shares its process with the earlier successful
// jobs of its Sandbox. The only state that outlives a job there is the pure,
// process-lifetime Zipf table cache (workload/pattern.cpp).
//
// Fault injection for tests and the CI chaos smoke: STTGPU_SANDBOX_FAULT
// holds comma-separated "<arch>/<bench>=<abort|oom|hang>[@<attempt>]"
// entries; a matching job aborts, allocates until bad_alloc, or stops
// beating — on every attempt, or only on the 1-based attempt after '@'.
// The parent reads it at every attempt and sends the mode with the job,
// since a reused worker's environment is frozen at its spawn.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include <sys/types.h>

#include "sim/executor.hpp"
#include "sim/runner.hpp"

namespace sttgpu::serve {

/// What to simulate, and the labels of its result/telemetry lines.
struct SandboxJob {
  std::string arch;
  std::string bench;
  sim::RunOptions base;  ///< scale + simulation-shaping knobs, no hooks
  bool want_telemetry = false;
  Cycle interval = 50000;
};

/// What one job's attempts did, summed over the attempts.
struct SandboxCounters {
  unsigned attempts = 0;  ///< attempts made; a fault's '@' counts these
  unsigned spawns = 0;    ///< worker processes started
  unsigned kills = 0;     ///< workers SIGKILLed on a cancel, watchdog or timeout
  unsigned crashes = 0;   ///< workers that died on a signal or hit mem_limit
};

class Sandbox {
 public:
  /// @p mem_limit_bytes > 0 is the worker's RLIMIT_AS (0 = none).
  explicit Sandbox(std::uint64_t mem_limit_bytes = 0) : mem_limit_bytes_(mem_limit_bytes) {}
  /// Closes the channel; the idle worker exits on EOF and is reaped.
  ~Sandbox();
  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  /// One attempt, for the body of a sim::Job callback: runs @p job in the
  /// worker (spawning one if there is none) and returns its row as a store
  /// "put ..." payload line. Throws Cancelled (the token's reason) after
  /// SIGKILLing the worker when @p ctl is cancelled, and SimError when the
  /// worker crashes, hits the mem_limit, or fails. @p on_event receives the
  /// forwarded telemetry event lines (JSON objects) on the calling thread.
  std::string run(const SandboxJob& job, const sim::JobControl& ctl,
                  SandboxCounters& counters,
                  const std::function<void(const std::string&)>& on_event = {});

 private:
  void spawn(SandboxCounters& counters);
  /// SIGKILLs the worker when @p kill, closes the channel and reaps it;
  /// returns its wait status.
  int end_worker(bool kill);

  std::uint64_t mem_limit_bytes_;
  pid_t pid_ = -1;  ///< the worker, -1 when none is running
  int fd_ = -1;     ///< the daemon's end of the channel
  int beat_fd_ = -1;
  std::atomic<std::uint64_t>* beat_ = nullptr;  ///< the mapped heartbeat page
};

}  // namespace sttgpu::serve
