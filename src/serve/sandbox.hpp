// Process-isolated simulation for the sweep service.
//
// run_sandboxed() is one attempt of a supervised job (sim/supervisor.hpp):
// it executes one cache-miss simulation in a forked child, so a run that
// SIGSEGVs, exhausts memory, or wedges in an infinite loop can never take
// the daemon — and every other client's in-flight work — down with it. The
// supervisor that calls it owns the policy: attempts, the watchdog,
// job_timeout, retry with backoff, and cancellation. The attempt only
// bridges the process boundary:
//
//   * heartbeat — it maps one MAP_SHARED page before fork(); the child's Gpu
//     publishes its cycle count there at every supervision point, and the
//     parent copies it into ctl.beat() on every poll wake, where the
//     supervisor's watchdog reads it.
//   * cancellation — once ctl's token is requested (user cancel, watchdog or
//     timeout), the child is SIGKILLed and the attempt throws Cancelled with
//     the token's reason; the supervisor never retries those.
//   * failure — a child that dies on a signal, hits the mem_limit, or
//     reports a simulation error makes the attempt throw a plain SimError,
//     which the supervisor retries up to its `retries` budget.
//   * memory — mem_limit_bytes > 0 installs RLIMIT_AS in the child, so a
//     runaway allocation fails *inside the sandbox* (a caught std::bad_alloc,
//     or a signal if the kernel gets there first) instead of driving the
//     host into swap.
//
// The result travels back over a pipe as the store's own "put ..." payload
// line (store/record.hpp, max_digits10 round-trip exact), so a row simulated
// in a sandbox is byte-identical to one simulated by a direct `sttgpu
// matrix` run. Telemetry frames are forwarded live on the same pipe as the
// watch stream's own event JSON. The child first closes every descriptor it
// inherited except stdio and its end of the pipe, runs single-threaded, and
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

#include "sim/executor.hpp"
#include "sim/runner.hpp"

namespace sttgpu::serve {

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
  std::uint64_t mem_limit_bytes = 0;  ///< 0 = no RLIMIT_AS in the child
};

/// What one job's attempts did to their children, summed over the attempts.
struct SandboxCounters {
  unsigned forks = 0;    ///< children forked; the next attempt is forks + 1
  unsigned kills = 0;    ///< children SIGKILLed on a cancel, watchdog or timeout
  unsigned crashes = 0;  ///< children that died on a signal or hit mem_limit
};

/// One attempt, for the body of a sim::Job::supervised callback: forks a
/// child that runs @p job and returns its row as a store "put ..." payload
/// line. Throws Cancelled (the token's reason) after SIGKILLing the child
/// when @p ctl is cancelled, and SimError when the child crashes, hits the
/// mem_limit, or fails. @p on_event receives forwarded telemetry event lines
/// (complete JSON objects) on the calling thread.
std::string run_sandboxed(const SandboxJob& job, const SandboxOptions& opts,
                          const sim::JobControl& ctl, SandboxCounters& counters,
                          const std::function<void(const std::string&)>& on_event = {});

}  // namespace sttgpu::serve
